#include "soap/xml.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <stdexcept>

namespace vw::soap {

const XmlNode* XmlNode::child(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::children_named(std::string_view child_name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children) {
    if (c.name == child_name) out.push_back(&c);
  }
  return out;
}

std::string XmlNode::child_text(std::string_view child_name) const {
  const XmlNode* c = child(child_name);
  return c ? c->text : std::string{};
}

XmlNode& XmlNode::add_child(std::string child_name) {
  children.push_back(XmlNode{.name = std::move(child_name), .attributes = {}, .text = {},
                             .children = {}});
  return children.back();
}

XmlNode& XmlNode::add_text_child(std::string child_name, std::string value) {
  XmlNode& c = add_child(std::move(child_name));
  c.text = std::move(value);
  return c;
}

std::string xml_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

void serialize(const XmlNode& node, std::string& out) {
  out += '<';
  out += node.name;
  for (const auto& [k, v] : node.attributes) {
    out += ' ';
    out += k;
    out += "=\"";
    out += xml_escape(v);
    out += '"';
  }
  if (node.text.empty() && node.children.empty()) {
    out += "/>";
    return;
  }
  out += '>';
  out += xml_escape(node.text);
  for (const auto& c : node.children) serialize(c, out);
  out += "</";
  out += node.name;
  out += '>';
}

// The deepest document exchanged here is a SOAP-wrapped GetObservationsResponse
// (5 levels); parse_element recurses once per level, so hostile nesting must
// stop long before it exhausts the stack.
constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view doc) : doc_(doc) {}

  XmlNode parse() {
    skip_ws_and_prolog();
    XmlNode root = parse_element(1);
    skip_ws();
    if (pos_ != doc_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("XML parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  char peek() {
    if (pos_ >= doc_.size()) fail("unexpected end of document");
    return doc_[pos_];
  }

  bool starts_with(std::string_view s) const { return doc_.substr(pos_).starts_with(s); }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < doc_.size() && std::isspace(static_cast<unsigned char>(doc_[pos_]))) ++pos_;
  }

  void skip_ws_and_prolog() {
    skip_ws();
    while (starts_with("<?")) {
      const auto end = doc_.find("?>", pos_);
      if (end == std::string_view::npos) fail("unterminated processing instruction");
      pos_ = end + 2;
      skip_ws();
    }
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < doc_.size()) {
      const char c = doc_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == ':' || c == '_' || c == '-' ||
          c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a name");
    return std::string(doc_.substr(start, pos_ - start));
  }

  std::string decode_entities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      const auto semi = raw.find(';', i);
      if (semi == std::string_view::npos) fail("unterminated entity");
      const std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "amp") out += '&';
      else if (ent == "lt") out += '<';
      else if (ent == "gt") out += '>';
      else if (ent == "quot") out += '"';
      else if (ent == "apos") out += '\'';
      else fail("unknown entity: " + std::string(ent));
      i = semi + 1;
    }
    return out;
  }

  XmlNode parse_element(std::size_t depth) {
    if (depth > kMaxDepth) fail("elements nested deeper than " + std::to_string(kMaxDepth));
    expect('<');
    XmlNode node;
    node.name = parse_name();
    // Attributes.
    for (;;) {
      skip_ws();
      const char c = peek();
      if (c == '/' || c == '>') break;
      std::string attr = parse_name();
      skip_ws();
      expect('=');
      skip_ws();
      const char quote = peek();
      if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
      ++pos_;
      const auto end = doc_.find(quote, pos_);
      if (end == std::string_view::npos) fail("unterminated attribute value");
      node.attributes[attr] = decode_entities(doc_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }
    if (peek() == '/') {
      ++pos_;
      expect('>');
      return node;
    }
    expect('>');
    // Content: text and child elements until the closing tag.
    for (;;) {
      if (pos_ >= doc_.size()) fail("unterminated element <" + node.name + ">");
      if (starts_with("</")) {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != node.name) fail("mismatched closing tag: " + closing);
        skip_ws();
        expect('>');
        return node;
      }
      if (starts_with("<!--")) {
        const auto end = doc_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (peek() == '<') {
        node.children.push_back(parse_element(depth + 1));
        continue;
      }
      const auto next = doc_.find('<', pos_);
      if (next == std::string_view::npos) fail("unterminated element content");
      node.text += decode_entities(doc_.substr(pos_, next - pos_));
      pos_ = next;
    }
  }

  std::string_view doc_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_xml(const XmlNode& node) {
  std::string out;
  serialize(node, out);
  return out;
}

XmlNode parse_xml(std::string_view doc) { return Parser(doc).parse(); }

XmlNode make_envelope(XmlNode body_content) {
  XmlNode env;
  env.name = "soap:Envelope";
  env.attributes["xmlns:soap"] = std::string(kSoapEnvNs);
  XmlNode& body = env.add_child("soap:Body");
  body.children.push_back(std::move(body_content));
  return env;
}

XmlNode extract_body(const XmlNode& envelope) {
  if (envelope.name != "soap:Envelope") throw std::runtime_error("not a SOAP envelope");
  const XmlNode* body = envelope.child("soap:Body");
  if (body == nullptr || body->children.size() != 1) {
    throw std::runtime_error("SOAP body missing or not a single element");
  }
  return body->children.front();
}

XmlNode make_fault(std::string_view code, std::string_view message) {
  XmlNode fault;
  fault.name = "soap:Fault";
  fault.add_text_child("faultcode", std::string(code));
  fault.add_text_child("faultstring", std::string(message));
  return fault;
}

bool is_fault(const XmlNode& body) { return body.name == "soap:Fault"; }

template <typename T>
T decode_number(std::string_view text, std::string_view element, std::string_view field) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error("<" + std::string(element) + "> " + std::string(field) + "=\"" +
                             std::string(text) + "\" is not a valid number");
  }
  return value;
}

template <typename T>
T attr(const XmlNode& node, const std::string& name) {
  const auto it = node.attributes.find(name);
  if (it == node.attributes.end()) {
    throw std::runtime_error("<" + node.name + "> lacks attribute '" + name + "'");
  }
  return decode_number<T>(it->second, node.name, name);
}

std::string format_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ptr);
}

template std::uint32_t decode_number<std::uint32_t>(std::string_view, std::string_view,
                                                    std::string_view);
template std::uint64_t decode_number<std::uint64_t>(std::string_view, std::string_view,
                                                    std::string_view);
template double decode_number<double>(std::string_view, std::string_view, std::string_view);
template std::uint32_t attr<std::uint32_t>(const XmlNode&, const std::string&);
template std::uint64_t attr<std::uint64_t>(const XmlNode&, const std::string&);
template double attr<double>(const XmlNode&, const std::string&);

}  // namespace vw::soap
