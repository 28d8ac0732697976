#include "io/csv.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/parse_int.h"

namespace adp {
namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::stringstream ss(line);
  while (std::getline(ss, field, ',')) {
    // Trim surrounding whitespace.
    std::size_t b = field.find_first_not_of(" \t\r");
    std::size_t e = field.find_last_not_of(" \t\r");
    fields.push_back(b == std::string::npos
                         ? std::string()
                         : field.substr(b, e - b + 1));
  }
  return fields;
}

// The one field parser: a whole field, in the int64 range. `context` (the
// path) and `lineno` locate the field in the error.
Value ParseField(const std::string& field, const std::string& context,
                 std::size_t lineno) {
  Value value = 0;
  const IntParse status = ParseInt64(field, &value);
  if (status == IntParse::kOk) return value;
  std::ostringstream os;
  os << context << ": line " << lineno << ": "
     << (status == IntParse::kOutOfRange ? "integer out of the 64-bit range"
                                         : "non-integer field")
     << " '" << field << "'";
  throw CsvError(os.str());
}

// Calls `row(values)` for every data row of `in`, `values` holding its
// `arity` integers (none for a vacuum tuple's blank line).
template <typename RowFn>
void ForEachCsvRow(std::istream& in, std::size_t arity,
                   const std::string& context, RowFn row) {
  Tuple values(arity);
  std::string line;
  std::size_t lineno = 0;
  bool first_data_line = true;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.empty() || (fields.size() == 1 && fields[0].empty())) {
      if (arity == 0) row(values);  // vacuum tuple
      continue;
    }
    Value ignored = 0;
    if (first_data_line &&
        ParseInt64(fields[0], &ignored) == IntParse::kMalformed) {
      first_data_line = false;
      continue;  // header
    }
    first_data_line = false;
    if (fields.size() != arity) {
      std::ostringstream os;
      os << context << ": line " << lineno << " has " << fields.size()
         << " fields, expected " << arity;
      throw CsvError(os.str());
    }
    for (std::size_t c = 0; c < arity; ++c) {
      values[c] = ParseField(fields[c], context, lineno);
    }
    row(values);
  }
}

}  // namespace

std::vector<Tuple> ReadTuplesCsv(std::istream& in, std::size_t arity,
                                 const std::string& context) {
  std::vector<Tuple> out;
  ForEachCsvRow(in, arity, context,
                [&](const Tuple& values) { out.push_back(values); });
  return out;
}

std::vector<Tuple> LoadTuplesCsv(const std::string& path, std::size_t arity) {
  std::ifstream in(path);
  if (!in) throw CsvError("cannot open " + path);
  return ReadTuplesCsv(in, arity, path);
}

Database LoadDatabaseCsv(const ConjunctiveQuery& q, const std::string& dir) {
  Database db(q.num_relations());
  for (int i = 0; i < q.num_relations(); ++i) {
    const RelationSchema& schema = q.relation(i);
    const std::string path = dir + "/" + schema.name + ".csv";
    std::ifstream in(path);
    if (!in) {
      throw CsvError("missing instance file " + path + " for relation " +
                     schema.name);
    }
    // Stream rows straight into the columnar instance: no per-row Tuple
    // allocation, and each value is interned once per column dictionary.
    RelationInstance& rel = db.rel(i);
    ForEachCsvRow(in, schema.attrs.size(), path, [&](const Tuple& values) {
      rel.AppendRow(values.data(), values.size());
    });
    rel.Dedup();
  }
  return db;
}

void WriteSolutionCsv(std::ostream& out, const ConjunctiveQuery& q,
                      const Database& db,
                      const std::vector<TupleRef>& tuples) {
  out << "# relation,row,values...\n";
  for (const TupleRef& ref : tuples) {
    out << q.relation(ref.relation).name << "," << ref.row;
    const Tuple& row = db.rel(ref.relation).tuple(ref.row);
    for (Value v : row) out << "," << v;
    out << "\n";
  }
}

}  // namespace adp
