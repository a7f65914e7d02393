#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

// Small XML document model + serializer + parser — enough to carry real
// SOAP envelopes for Wren's measurement interface. Handles elements,
// attributes, text content and the five standard entities; no namespaces
// processing (prefixes are kept verbatim in names), no CDATA/comments.

namespace vw::soap {

struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::string text;  ///< concatenated character data directly inside this node
  std::vector<XmlNode> children;

  /// First child with the given name; nullptr when absent.
  const XmlNode* child(std::string_view child_name) const;
  /// All children with the given name.
  std::vector<const XmlNode*> children_named(std::string_view child_name) const;
  /// Text of the first child with the given name; empty when absent.
  std::string child_text(std::string_view child_name) const;

  /// Convenience builders.
  XmlNode& add_child(std::string child_name);
  XmlNode& add_text_child(std::string child_name, std::string value);
};

/// Serialize a node tree to an XML string (no declaration, no pretty print).
std::string to_xml(const XmlNode& node);

/// Escape character data (& < > " ').
std::string xml_escape(std::string_view s);

/// Parse an XML document; throws std::runtime_error on malformed input,
/// including elements nested deeper than any document this tree exchanges
/// (the parser recurses per level, so the cap bounds its stack use).
XmlNode parse_xml(std::string_view doc);

/// Strict decoding of the whole of `text` as a T: std::uint32_t (host ids),
/// std::uint64_t or double (NaN and infinities included: range rules are
/// the caller's). An empty value, leading whitespace, a sign on an unsigned
/// type, trailing characters ("12abc") or an out-of-range value throws
/// std::runtime_error, the type parse_xml throws, naming `field` of
/// <`element`>.
template <typename T>
T decode_number(std::string_view text, std::string_view element, std::string_view field);

/// decode_number() of attribute `name`; a missing attribute throws too.
/// Control-message handlers decode every field this way before touching
/// state.
template <typename T>
T attr(const XmlNode& node, const std::string& name);

/// Shortest text that reads back as exactly `v` (std::to_chars).
std::string format_double(double v);

// --- SOAP envelope helpers ---------------------------------------------------

inline constexpr std::string_view kSoapEnvNs = "http://schemas.xmlsoap.org/soap/envelope/";

/// Wrap `body_content` in <soap:Envelope><soap:Body>...</>.
XmlNode make_envelope(XmlNode body_content);

/// Extract (a copy of) the single body content element from an envelope;
/// throws std::runtime_error when the document is not a SOAP envelope.
XmlNode extract_body(const XmlNode& envelope);

/// Build a SOAP Fault body element.
XmlNode make_fault(std::string_view code, std::string_view message);

/// True when the body element is a Fault.
bool is_fault(const XmlNode& body);

}  // namespace vw::soap
