// Tests for the XML/SOAP layer: serialization, parsing, envelopes, RPC
// dispatch and fault propagation.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "soap/rpc.hpp"
#include "soap/xml.hpp"

namespace vw::soap {
namespace {

TEST(XmlTest, SerializeSimpleTree) {
  XmlNode root;
  root.name = "root";
  root.add_text_child("a", "1");
  XmlNode& b = root.add_child("b");
  b.attributes["k"] = "v";
  EXPECT_EQ(to_xml(root), "<root><a>1</a><b k=\"v\"/></root>");
}

TEST(XmlTest, EscapeRoundTrip) {
  XmlNode root;
  root.name = "r";
  root.text = "a<b & \"c\" 'd'";
  root.attributes["attr"] = "x&y<z";
  const XmlNode parsed = parse_xml(to_xml(root));
  EXPECT_EQ(parsed.text, root.text);
  EXPECT_EQ(parsed.attributes.at("attr"), "x&y<z");
}

TEST(XmlTest, ParseNested) {
  const XmlNode n = parse_xml("<a><b><c>deep</c></b><b2>x</b2></a>");
  EXPECT_EQ(n.name, "a");
  ASSERT_NE(n.child("b"), nullptr);
  EXPECT_EQ(n.child("b")->child_text("c"), "deep");
  EXPECT_EQ(n.child_text("b2"), "x");
}

TEST(XmlTest, ParseSelfClosingAndAttributes) {
  const XmlNode n = parse_xml("<a x=\"1\" y='two'/>");
  EXPECT_EQ(n.attributes.at("x"), "1");
  EXPECT_EQ(n.attributes.at("y"), "two");
  EXPECT_TRUE(n.children.empty());
}

TEST(XmlTest, ParseSkipsPrologAndComments) {
  const XmlNode n = parse_xml("<?xml version=\"1.0\"?><a><!-- note --><b>1</b></a>");
  EXPECT_EQ(n.child_text("b"), "1");
}

TEST(XmlTest, ChildrenNamedReturnsAll) {
  const XmlNode n = parse_xml("<a><p>1</p><q>x</q><p>2</p></a>");
  const auto ps = n.children_named("p");
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0]->text, "1");
  EXPECT_EQ(ps[1]->text, "2");
}

TEST(XmlTest, MalformedInputsThrow) {
  EXPECT_THROW(parse_xml("<a><b></a>"), std::runtime_error);     // mismatched close
  EXPECT_THROW(parse_xml("<a>"), std::runtime_error);            // unterminated
  EXPECT_THROW(parse_xml("<a>&unknown;</a>"), std::runtime_error);
  EXPECT_THROW(parse_xml("<a></a><b></b>"), std::runtime_error);  // two roots
  EXPECT_THROW(parse_xml("plain text"), std::runtime_error);
  // 100,000 nested elements: rejected at the depth cap, not a stack overflow.
  std::string deep;
  for (int i = 0; i < 100'000; ++i) deep += "<a>";
  for (int i = 0; i < 100'000; ++i) deep += "</a>";
  EXPECT_THROW(parse_xml(deep), std::runtime_error);
}

TEST(XmlTest, StrictAttributeDecoding) {
  const XmlNode n = parse_xml(R"(<m id="42" big="4294967296" bw="1.5e6" nan="nan"
                                  neg="-1" tail="12abc" empty="" sp=" 7"/>)");
  EXPECT_EQ(attr<std::uint32_t>(n, "id"), 42u);
  EXPECT_EQ(attr<std::uint64_t>(n, "big"), 4294967296ull);
  EXPECT_EQ(attr<double>(n, "bw"), 1.5e6);
  EXPECT_TRUE(std::isnan(attr<double>(n, "nan")));  // range rules are the caller's
  EXPECT_THROW(attr<std::uint32_t>(n, "big"), std::runtime_error);
  EXPECT_THROW(attr<double>(n, "tail"), std::runtime_error);
  for (const char* bad : {"neg", "tail", "empty", "sp", "missing"}) {
    EXPECT_THROW(attr<std::uint64_t>(n, bad), std::runtime_error) << bad;
  }
}

TEST(XmlTest, WhitespaceOnlyTextPreserved) {
  // Mixed content keeps character data.
  const XmlNode n = parse_xml("<a>hi<b/>there</a>");
  EXPECT_EQ(n.text, "hithere");
}

TEST(EnvelopeTest, WrapAndExtract) {
  XmlNode body;
  body.name = "MyRequest";
  body.add_text_child("x", "42");
  const XmlNode env = make_envelope(body);
  EXPECT_EQ(env.name, "soap:Envelope");
  const XmlNode extracted = extract_body(parse_xml(to_xml(env)));
  EXPECT_EQ(extracted.name, "MyRequest");
  EXPECT_EQ(extracted.child_text("x"), "42");
}

TEST(EnvelopeTest, ExtractRejectsNonEnvelope) {
  XmlNode n;
  n.name = "NotAnEnvelope";
  EXPECT_THROW(extract_body(n), std::runtime_error);
}

TEST(EnvelopeTest, FaultConstruction) {
  const XmlNode f = make_fault("soap:Server", "boom");
  EXPECT_TRUE(is_fault(f));
  EXPECT_EQ(f.child_text("faultstring"), "boom");
}

TEST(RpcTest, CallDispatchesAndReturns) {
  RpcRegistry reg;
  reg.register_method("svc://x", "Echo", [](const XmlNode& req) {
    XmlNode resp;
    resp.name = "EchoResponse";
    resp.add_text_child("echo", req.child_text("value"));
    return resp;
  });
  XmlNode req;
  req.name = "Echo";
  req.add_text_child("value", "ping");
  const XmlNode resp = reg.call("svc://x", "Echo", req);
  EXPECT_EQ(resp.child_text("echo"), "ping");
}

TEST(RpcTest, UnknownEndpointThrows) {
  RpcRegistry reg;
  XmlNode req;
  req.name = "M";
  EXPECT_THROW(reg.call("svc://missing", "M", req), std::out_of_range);
}

TEST(RpcTest, HandlerExceptionBecomesFault) {
  RpcRegistry reg;
  reg.register_method("svc://x", "Fail",
                      [](const XmlNode&) -> XmlNode { throw std::runtime_error("kaput"); });
  XmlNode req;
  req.name = "Fail";
  try {
    reg.call("svc://x", "Fail", req);
    FAIL() << "expected SoapFault";
  } catch (const SoapFault& f) {
    EXPECT_EQ(f.code(), "soap:Server");
    EXPECT_STREQ(f.what(), "kaput");
  }
}

TEST(RpcTest, UnregisterEndpointRemovesAllMethods) {
  RpcRegistry reg;
  reg.register_method("svc://x", "A", [](const XmlNode&) {
    XmlNode r;
    r.name = "R";
    return r;
  });
  reg.register_method("svc://x", "B", [](const XmlNode&) {
    XmlNode r;
    r.name = "R";
    return r;
  });
  EXPECT_TRUE(reg.has_endpoint("svc://x"));
  reg.unregister_endpoint("svc://x");
  EXPECT_FALSE(reg.has_endpoint("svc://x"));
}

TEST(RpcTest, RequestSurvivesXmlRoundTrip) {
  // Values with XML-special characters must arrive intact through the
  // serialize/parse cycle the registry performs.
  RpcRegistry reg;
  std::string received;
  reg.register_method("svc://x", "Take", [&](const XmlNode& req) {
    received = req.child_text("v");
    XmlNode ok;
    ok.name = "Ok";
    return ok;
  });
  XmlNode req;
  req.name = "Take";
  req.add_text_child("v", "a<b>&\"c\"");
  reg.call("svc://x", "Take", req);
  EXPECT_EQ(received, "a<b>&\"c\"");
}

}  // namespace
}  // namespace vw::soap
