#include "query/parser.h"

#include <cctype>
#include <set>

#include "util/parse_int.h"

namespace adp {
namespace {

// A tiny recursive-descent scanner over the query text.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(Byte(pos_))) ++pos_;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    if (!Consume(c)) {
      Fail(std::string("expected '") + c + "'");
    }
  }

  bool ConsumeTurnstile() {
    SkipSpace();
    if (text_.substr(pos_, 2) == ":-") {
      pos_ += 2;
      return true;
    }
    return false;
  }

  std::string Identifier() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(Byte(pos_)) || text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  Value Integer() {
    SkipSpace();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() && std::isdigit(Byte(pos_))) ++pos_;
    Value value = 0;
    const IntParse status =
        ParseInt64(text_.substr(start, pos_ - start), &value);
    if (status == IntParse::kOutOfRange) {
      Fail("integer literal out of the 64-bit range");
    }
    if (status != IntParse::kOk) Fail("expected integer");
    return value;
  }

  [[noreturn]] void Fail(const std::string& msg) {
    throw ParseError(msg + " at position " + std::to_string(pos_) + " in \"" +
                     std::string(text_) + "\"");
  }

 private:
  unsigned char Byte(std::size_t i) const {
    return static_cast<unsigned char>(text_[i]);
  }
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

ConjunctiveQuery ParseQuery(std::string_view text) {
  Scanner s(text);
  ConjunctiveQuery q;

  // Head: NAME '(' attrs? ')'  (the head name itself is ignored), or a bare
  // NAME for boolean queries.
  s.Identifier();
  std::vector<std::string> head_attrs;
  if (s.Consume('(')) {
    if (!s.Consume(')')) {
      do {
        head_attrs.push_back(s.Identifier());
      } while (s.Consume(','));
      s.Expect(')');
    }
  }
  if (!s.ConsumeTurnstile()) s.Fail("expected ':-'");

  // Body: relation atoms.
  std::set<std::string> rel_names;
  do {
    std::string rel_name = s.Identifier();
    if (!rel_names.insert(rel_name).second) {
      s.Fail("self-join (duplicate relation '" + rel_name +
             "') is not supported");
    }
    s.Expect('(');
    std::vector<AttrId> attrs;
    std::vector<Selection> preds;
    if (!s.Consume(')')) {
      do {
        std::string attr_name = s.Identifier();
        if (q.FindAttribute(attr_name) < 0 &&
            q.num_attributes() >= kMaxAttrs) {
          // Attribute sets are one 64-bit word (util/attr_set.h).
          s.Fail("more than " + std::to_string(kMaxAttrs) +
                 " distinct attributes");
        }
        AttrId a = q.AddAttribute(attr_name);
        for (AttrId existing : attrs) {
          if (existing == a) {
            s.Fail("attribute '" + attr_name + "' repeated within a relation");
          }
        }
        attrs.push_back(a);
        if (s.Consume('=')) {
          preds.push_back(Selection{a, s.Integer()});
        }
      } while (s.Consume(','));
      s.Expect(')');
    }
    int rel = q.AddRelation(std::move(rel_name), std::move(attrs));
    for (const Selection& p : preds) q.AddSelection(rel, p.attr, p.value);
  } while (s.Consume(','));

  if (!s.AtEnd()) s.Fail("trailing input");

  // Resolve the head against body attributes.
  AttrSet head;
  for (const std::string& name : head_attrs) {
    AttrId a = q.FindAttribute(name);
    if (a < 0) {
      throw ParseError("head attribute '" + name +
                       "' does not occur in the body");
    }
    head.Add(a);
  }
  q.SetHead(head);
  return q;
}

}  // namespace adp
