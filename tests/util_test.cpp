#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sw/full_matrix.h"
#include "util/args.h"
#include "util/fasta.h"
#include "util/genome.h"
#include "util/rng.h"
#include "util/sequence.h"
#include "util/table.h"

namespace gdsm {
namespace {

TEST(Alphabet, EncodeDecodeRoundTrip) {
  for (char c : std::string("ACGT")) {
    EXPECT_EQ(decode_base(encode_base(c)), c);
  }
  EXPECT_EQ(encode_base('a'), kBaseA);
  EXPECT_EQ(encode_base('t'), kBaseT);
  EXPECT_EQ(encode_base('N'), kBaseN);
  EXPECT_EQ(encode_base('X'), kBaseN);
  EXPECT_EQ(decode_base(kBaseN), 'N');
}

TEST(Alphabet, Complement) {
  EXPECT_EQ(complement(kBaseA), kBaseT);
  EXPECT_EQ(complement(kBaseT), kBaseA);
  EXPECT_EQ(complement(kBaseC), kBaseG);
  EXPECT_EQ(complement(kBaseG), kBaseC);
  EXPECT_EQ(complement(kBaseN), kBaseN);
}

TEST(Alphabet, StrictBase) {
  EXPECT_TRUE(is_strict_base('A'));
  EXPECT_TRUE(is_strict_base('g'));
  EXPECT_FALSE(is_strict_base('N'));
  EXPECT_FALSE(is_strict_base('-'));
}

TEST(Sequence, BasicAccessors) {
  const Sequence s("seq1", "ACGTN");
  EXPECT_EQ(s.name(), "seq1");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0], kBaseA);
  EXPECT_EQ(s[4], kBaseN);
  EXPECT_EQ(s.text(), "ACGTN");
}

TEST(Sequence, SliceAndReverse) {
  const Sequence s("x", "ACGTACGT");
  EXPECT_EQ(s.slice(2, 6).text(), "GTAC");
  EXPECT_EQ(s.reversed().text(), "TGCATGCA");
  EXPECT_EQ(s.reverse_complement().text(), "ACGTACGT");
  EXPECT_THROW(s.slice(5, 3), std::out_of_range);
  EXPECT_THROW(s.slice(0, 9), std::out_of_range);
}

TEST(Sequence, EqualityIgnoresName) {
  EXPECT_EQ(Sequence("a", "ACGT"), Sequence("b", "ACGT"));
  EXPECT_FALSE(Sequence("a", "ACGT") == Sequence("a", "ACGA"));
}

namespace {

/// Writes `text` to a temp file named after `tag` and parses it with
/// read_fasta_file.
std::vector<Sequence> parse_fasta_text(const std::string& text,
                                       const std::string& tag) {
  const std::string path = ::testing::TempDir() + "fasta_" + tag;
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  struct Remove {
    std::string path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return read_fasta_file(path);
}

struct Record {
  std::string name;
  std::string text;
};

/// Parses `text` and expects exactly `want`, in order.
void expect_records(const std::string& text, const std::string& tag,
                    const std::vector<Record>& want) {
  const std::vector<Sequence> got = parse_fasta_text(text, tag);
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name(), want[i].name) << tag << " record " << i;
    EXPECT_EQ(got[i].text(), want[i].text) << tag << " record " << i;
  }
}

}  // namespace

TEST(Fasta, RoundTrip) {
  std::vector<Sequence> seqs{Sequence("alpha", "ACGTACGTACGT"),
                             Sequence("beta", "TTTTGGGGCCCCAAAA")};
  std::ostringstream out;
  write_fasta(out, seqs, /*width=*/5);
  expect_records(out.str(), "roundtrip",
                 {{"alpha", "ACGTACGTACGT"}, {"beta", "TTTTGGGGCCCCAAAA"}});
}

TEST(Fasta, HeaderNameStopsAtWhitespace) {
  expect_records(">chr1 homo sapiens\nACGT\n", "headername",
                 {{"chr1", "ACGT"}});
}

TEST(Fasta, RejectsDataBeforeHeader) {
  EXPECT_THROW(parse_fasta_text("ACGT\n>late\nACGT\n", "badlead"),
               std::runtime_error);
}

// ----------------------------------------------- streaming FASTA reader --
// The chunked FastaStreamReader against records written out by hand: blank
// lines and ';' comments are skipped, whitespace inside sequence lines is
// dropped, lowercase folds to uppercase, a '\r' before '\n' or at end of
// input ends the line, and a header with no sequence is an empty record.

TEST(FastaStream, MatchesOracleOnMessyInput) {
  expect_records(
      ">a first\nACGT\nacgt\n\n;comment line\n>b\tsecond\n  AC GT \nNNN\n>c\n",
      "messy", {{"a", "ACGTACGT"}, {"b", "ACGTNNN"}, {"c", ""}});
  expect_records(">crlf desc\r\nACGT\r\nTTTT\r\n>two\r\nGG\r\n", "crlf",
                 {{"crlf", "ACGTTTTT"}, {"two", "GG"}});
  expect_records(">no_trailing_newline\nACGTAC", "notrail",
                 {{"no_trailing_newline", "ACGTAC"}});
  expect_records(">trailing_cr_eof\nACGT\r", "creof",
                 {{"trailing_cr_eof", "ACGT"}});
  expect_records("", "empty", {});
  expect_records(";only a comment\n", "commentonly", {});
}

TEST(FastaStream, RecordsSpanReadChunks) {
  // One record much larger than the 64 KiB read buffer plus many small
  // records, so headers and sequence lines land on chunk boundaries.
  Rng rng(7);
  std::string text = ">big whole-buffer record\n";
  const std::string big = random_dna(300'000, rng).text();
  for (std::size_t i = 0; i < big.size(); i += 70) {
    text += big.substr(i, 70);
    text += '\n';
  }
  std::vector<Record> want{{"big", big}};
  for (int k = 0; k < 50; ++k) {
    text += ">small" + std::to_string(k) + "\nACGTACGTAA\n";
    want.push_back({"small" + std::to_string(k), "ACGTACGTAA"});
  }
  expect_records(text, "chunks", want);
}

TEST(FastaStream, RejectsDataBeforeHeaderAndMissingFile) {
  const std::string path = ::testing::TempDir() + "fasta_stream_badlead";
  {
    std::ofstream out(path, std::ios::binary);
    out << "ACGT\n>late\nACGT\n";
  }
  EXPECT_THROW(read_fasta_file(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(read_fasta_file(path), std::runtime_error);  // now absent
}

TEST(FastaStream, PullInterfaceYieldsOneRecordAtATime) {
  const std::string path = ::testing::TempDir() + "fasta_stream_pull";
  {
    std::ofstream out(path, std::ios::binary);
    out << ">one\nAC\n>two\nGT\n";
  }
  FastaStreamReader reader(path);
  Sequence s;
  ASSERT_TRUE(reader.next(s));
  EXPECT_EQ(s.name(), "one");
  EXPECT_EQ(s.text(), "AC");
  ASSERT_TRUE(reader.next(s));
  EXPECT_EQ(s.name(), "two");
  EXPECT_EQ(s.text(), "GT");
  EXPECT_FALSE(reader.next(s));
  std::remove(path.c_str());
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 10; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Genome, RandomDnaHasOnlyStrictBases) {
  Rng rng(5);
  const Sequence s = random_dna(1000, rng);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_LT(s[i], 4);
}

TEST(Genome, MutateRates) {
  Rng rng(6);
  const Sequence src = random_dna(20000, rng);
  const Sequence mut = mutate(src, 0.1, 0.0, rng);
  ASSERT_EQ(mut.size(), src.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < src.size(); ++i) diffs += (src[i] != mut[i]);
  EXPECT_NEAR(static_cast<double>(diffs) / src.size(), 0.1, 0.02);
}

TEST(Genome, PlantedRegionsAreWhereClaimed) {
  HomologousPairSpec spec;
  spec.length_s = 20000;
  spec.length_t = 20000;
  spec.n_regions = 8;
  spec.seed = 99;
  const HomologousPair pair = make_homologous_pair(spec);
  ASSERT_EQ(pair.regions.size(), 8u);
  for (const auto& r : pair.regions) {
    ASSERT_LT(r.s_begin, r.s_end);
    ASSERT_LE(r.s_end, pair.s.size());
    ASSERT_LT(r.t_begin, r.t_end);
    ASSERT_LE(r.t_end, pair.t.size());
    // The two copies descend from one ancestor with ~5% total divergence.
    // Indels shift positions, so homology is checked by alignment score,
    // not positional identity: a global alignment of the two copies must
    // score far above what unrelated DNA achieves (which is negative at
    // +1/-1/-2 scoring).
    const std::size_t len = std::min(r.s_end - r.s_begin, r.t_end - r.t_begin);
    const int score = needleman_wunsch(pair.s.slice(r.s_begin, r.s_end),
                                       pair.t.slice(r.t_begin, r.t_end))
                          .score;
    EXPECT_GT(score, static_cast<int>(len) / 2)
        << "planted region does not look homologous";
  }
}

TEST(Genome, Deterministic) {
  HomologousPairSpec spec;
  spec.length_s = 5000;
  spec.length_t = 5000;
  spec.n_regions = 3;
  spec.seed = 1234;
  const auto a = make_homologous_pair(spec);
  const auto b = make_homologous_pair(spec);
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.t, b.t);
}

TEST(Args, ParsesForms) {
  const char* argv[] = {"prog", "--size=50000", "--procs", "8",
                        "--verbose", "input.fa"};
  const Args args(6, argv, {"procs"});
  EXPECT_EQ(args.get_int("size", 0), 50000);
  EXPECT_EQ(args.get_int("procs", 0), 8);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("quiet"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.fa");
}

TEST(Args, UnknownKeys) {
  const char* argv[] = {"prog", "--foo=1", "--bar=2"};
  const Args args(3, argv);
  const auto unknown = args.unknown_keys({"foo"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bar");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_f(1107.019, 2), "1107.02");
  EXPECT_EQ(fmt_f(7.287, 2), "7.29");
  EXPECT_EQ(fmt_sec(175295.4), "175,295");
  EXPECT_EQ(fmt_sec(296), "296");
}

TEST(Table, PrintAligned) {
  TextTable t("Demo");
  t.set_header({"Size", "Serial", "8 proc"});
  t.add_row({"50K x 50K", "3461", "1107.02"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("== Demo =="), std::string::npos);
  EXPECT_NE(text.find("1107.02"), std::string::npos);
}

}  // namespace
}  // namespace gdsm
