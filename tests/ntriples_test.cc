#include "rdf/ntriples.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace mpc::rdf {
namespace {

RdfGraph ParseOrDie(const std::string& text) {
  GraphBuilder builder;
  Status st = NTriplesParser::ParseDocument(text, &builder);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return builder.Build();
}

Status ParseStatus(const std::string& text) {
  GraphBuilder builder;
  return NTriplesParser::ParseDocument(text, &builder);
}

TEST(NTriplesTest, BasicTriple) {
  RdfGraph g = ParseOrDie("<a> <p> <b> .\n");
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.VertexName(g.triples()[0].subject), "<a>");
  EXPECT_EQ(g.PropertyName(g.triples()[0].property), "<p>");
  EXPECT_EQ(g.VertexName(g.triples()[0].object), "<b>");
}

TEST(NTriplesTest, SkipsCommentsAndBlankLines) {
  RdfGraph g = ParseOrDie(
      "# a comment\n"
      "\n"
      "   \t\n"
      "<a> <p> <b> .\n"
      "# trailing comment\n");
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(NTriplesTest, LiteralObject) {
  RdfGraph g = ParseOrDie("<a> <p> \"hello world\" .\n");
  EXPECT_EQ(g.VertexName(g.triples()[0].object), "\"hello world\"");
  EXPECT_EQ(g.vertex_dict().KindOf(g.triples()[0].object),
            TermKind::kLiteral);
}

TEST(NTriplesTest, LiteralWithLanguageTag) {
  RdfGraph g = ParseOrDie("<a> <p> \"bonjour\"@fr .\n");
  EXPECT_EQ(g.VertexName(g.triples()[0].object), "\"bonjour\"@fr");
}

TEST(NTriplesTest, LiteralWithDatatype) {
  RdfGraph g = ParseOrDie(
      "<a> <p> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .\n");
  EXPECT_EQ(g.VertexName(g.triples()[0].object),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#int>");
}

TEST(NTriplesTest, LiteralWithEscapedQuote) {
  RdfGraph g = ParseOrDie(R"(<a> <p> "say \"hi\" now" .)");
  EXPECT_EQ(g.VertexName(g.triples()[0].object), R"("say \"hi\" now")");
}

TEST(NTriplesTest, BlankNodes) {
  RdfGraph g = ParseOrDie("_:b0 <p> _:b1 .\n");
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.vertex_dict().KindOf(g.triples()[0].subject),
            TermKind::kBlank);
}

TEST(NTriplesTest, WhitespaceVariants) {
  RdfGraph g = ParseOrDie("  <a>\t<p>   <b>   .  \n<c> <p> <d>.\n");
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(NTriplesTest, ErrorUnterminatedIri) {
  Status st = ParseStatus("<a <p> <b> .\n");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(NTriplesTest, ErrorMissingDot) {
  EXPECT_FALSE(ParseStatus("<a> <p> <b>\n").ok());
}

TEST(NTriplesTest, ErrorLiteralSubject) {
  EXPECT_FALSE(ParseStatus("\"lit\" <p> <b> .\n").ok());
}

TEST(NTriplesTest, ErrorLiteralPredicate) {
  EXPECT_FALSE(ParseStatus("<a> \"p\" <b> .\n").ok());
}

TEST(NTriplesTest, ErrorBlankNodePredicate) {
  EXPECT_FALSE(ParseStatus("<a> _:p <b> .\n").ok());
}

TEST(NTriplesTest, ErrorTrailingGarbage) {
  EXPECT_FALSE(ParseStatus("<a> <p> <b> . extra\n").ok());
}

TEST(NTriplesTest, ErrorUnterminatedLiteral) {
  EXPECT_FALSE(ParseStatus("<a> <p> \"oops .\n").ok());
}

TEST(NTriplesTest, ErrorReportsLineNumber) {
  Status st = ParseStatus("<a> <p> <b> .\nBAD LINE\n");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
}

TEST(NTriplesTest, RoundTripThroughSerializer) {
  const std::string original =
      "<a> <p> <b> .\n"
      "<a> <p> \"v\"@en .\n"
      "_:b0 <q> <a> .\n";
  RdfGraph g = ParseOrDie(original);
  std::string serialized = SerializeNTriples(g);
  RdfGraph g2 = ParseOrDie(serialized);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.num_vertices(), g.num_vertices());
  EXPECT_EQ(g2.num_properties(), g.num_properties());
  EXPECT_EQ(SerializeNTriples(g2), serialized);  // fixpoint
}

TEST(NTriplesTest, FileRoundTrip) {
  RdfGraph g = ParseOrDie("<a> <p> <b> .\n<b> <q> \"x\" .\n");
  const std::string path = ::testing::TempDir() + "/mpc_ntriples_test.nt";
  ASSERT_TRUE(WriteNTriplesFile(g, path).ok());
  GraphBuilder builder;
  ASSERT_TRUE(NTriplesParser::ParseFile(path, &builder).ok());
  EXPECT_EQ(builder.Build().num_edges(), 2u);
}

TEST(NTriplesTest, MissingFileIsIoError) {
  GraphBuilder builder;
  Status st = NTriplesParser::ParseFile("/nonexistent/nope.nt", &builder);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(NTriplesTest, LastLineWithoutNewline) {
  RdfGraph g = ParseOrDie("<a> <p> <b> .");
  EXPECT_EQ(g.num_edges(), 1u);
}

/// A document cut into many chunks at 2 and 8 threads, holding every
/// construct the chunked parse must number exactly as the serial one:
/// comment and blank lines, literals with escapes and language or
/// datatype suffixes, blank nodes, duplicate triples, and terms first
/// seen in the last chunk.
std::string ManyChunkDocument() {
  const std::string first = "<http://ex.org/s0> <http://ex.org/p0> "
                            "<http://ex.org/o0> .\n";
  std::string text = "# header comment\n\n" + first;
  for (int i = 1; i < 400; ++i) {
    const std::string s = "<http://ex.org/s" + std::to_string(i % 37) + ">";
    text += s + " <http://ex.org/p" + std::to_string(i % 5) +
            "> <http://ex.org/o" + std::to_string(i % 53) + "> .\n";
    if (i % 50 == 7) text += "# comment " + std::to_string(i) + "\n   \t\n";
    if (i % 40 == 3) {
      text += s + " <http://ex.org/label> \"say \\\"hi\\\"\\n\"@en-GB .\n";
    }
    if (i % 60 == 11) {
      text += "_:b" + std::to_string(i % 3) +
              " <http://ex.org/p1> "
              "\"42\"^^<http://www.w3.org/2001/XMLSchema#int> .\n";
    }
    if (i % 90 == 45) text += first;  // a duplicate triple
  }
  text += "<http://ex.org/late> <http://ex.org/late-p> \"late\"@fr .\n";
  text += "<http://ex.org/s1> <http://ex.org/late-p> <http://ex.org/late> .";
  return text;
}

TEST(NTriplesTest, ChunkedParseMatchesSerialBuilderState) {
  const std::string text = ManyChunkDocument();
  testutil::ExpectParseIdenticalAcrossThreadCounts(text, "document");
  GraphBuilder builder;
  ASSERT_TRUE(NTriplesParser::ParseDocument(text, &builder, 8).ok());
  EXPECT_EQ(builder.vertex_dict().Lexical(builder.triples().back().object),
            "<http://ex.org/late>");
  EXPECT_NE(builder.vertex_dict().Lookup("_:b2"), kInvalidVertex);
  EXPECT_NE(builder.vertex_dict().Lookup("\"say \\\"hi\\\"\\n\"@en-GB"),
            kInvalidVertex);
}

TEST(NTriplesTest, ChunkedParseReportsTheSerialErrorLine) {
  // The malformed line comes after terms first seen in earlier chunks,
  // and a term first seen on it must not be interned.
  std::string text = ManyChunkDocument();
  text.insert(text.find('\n', text.size() * 9 / 10) + 1,
              "<http://ex.org/s3> <http://ex.org/p4> <http://ex.org/never>\n");
  testutil::ExpectParseIdenticalAcrossThreadCounts(text, "malformed");
  GraphBuilder builder;
  const Status st = NTriplesParser::ParseDocument(text, &builder, 8);
  EXPECT_NE(st.message().find("missing terminating '.'"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(builder.vertex_dict().Lookup("<http://ex.org/never>"),
            kInvalidVertex);
}

}  // namespace
}  // namespace mpc::rdf
