#include "data/corpus.h"

#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "pcfg/pattern.h"

namespace ppg::data {
namespace {

SiteProfile small_profile(std::string name, std::size_t n = 3000) {
  SiteProfile p;
  p.name = std::move(name);
  p.unique_target = n;
  return p;
}

TEST(SyntheticSite, DeterministicForSeedAndName) {
  const auto a = generate_site(small_profile("x"), 1);
  const auto b = generate_site(small_profile("x"), 1);
  EXPECT_EQ(a.entries, b.entries);
}

TEST(SyntheticSite, DifferentSeedsDiffer) {
  const auto a = generate_site(small_profile("x"), 1);
  const auto b = generate_site(small_profile("x"), 2);
  EXPECT_NE(a.entries, b.entries);
}

TEST(SyntheticSite, DifferentSiteNamesDiffer) {
  const auto a = generate_site(small_profile("x"), 1);
  const auto b = generate_site(small_profile("y"), 1);
  EXPECT_NE(a.entries, b.entries);
}

TEST(SyntheticSite, EntriesAreUnique) {
  const auto c = generate_site(small_profile("x"), 3);
  std::unordered_set<std::string> set(c.entries.begin(), c.entries.end());
  EXPECT_EQ(set.size(), c.entries.size());
}

TEST(SyntheticSite, ReachesTargetSize) {
  const auto c = generate_site(small_profile("x", 5000), 4);
  EXPECT_EQ(c.entries.size(), 5000u);
}

TEST(Clean, EnforcesPaperRules) {
  RawCorpus raw;
  raw.name = "t";
  raw.entries = {"okpass1",      // keep
                 "abc",          // too short
                 "abcd",         // keep (boundary 4)
                 "abcdefghijkl", // keep (boundary 12)
                 "abcdefghijklm",// too long (13)
                 "has space",    // space
                 "p\xc3\xa4ss1", // non-ASCII
                 "okpass1",      // duplicate
                 "tab\tx1"};     // control char
  const auto cleaned = clean(raw);
  EXPECT_EQ(cleaned.stats.unique_raw, 8u);  // one duplicate collapsed
  ASSERT_EQ(cleaned.passwords.size(), 3u);
  EXPECT_EQ(cleaned.stats.cleaned, 3u);
  EXPECT_NEAR(cleaned.stats.retention(), 3.0 / 8.0, 1e-12);
}

TEST(Clean, AllPasswordsInUniverseAndLengthRange) {
  const auto raw = generate_site(small_profile("z", 4000), 5);
  const auto cleaned = clean(raw);
  for (const auto& pw : cleaned.passwords) {
    EXPECT_GE(pw.size(), 4u);
    EXPECT_LE(pw.size(), 12u);
    EXPECT_TRUE(std::all_of(pw.begin(), pw.end(), pcfg::in_universe)) << pw;
  }
}

struct RetentionCase {
  SiteProfile (*profile)();
  double lo, hi;
};

// gtest_discover_tests names each case after the printed parameter; the
// default byte dump would embed the function pointer, which ASLR changes on
// every discovery run. Print the profile name so test names are stable.
void PrintTo(const RetentionCase& c, std::ostream* os) {
  *os << c.profile().name;
}

class RetentionTest : public ::testing::TestWithParam<RetentionCase> {};

TEST_P(RetentionTest, MatchesTableTwoBand) {
  auto profile = GetParam().profile();
  profile.unique_target = std::min<std::size_t>(profile.unique_target, 8000);
  const auto cleaned = clean(generate_site(profile, 7));
  EXPECT_GE(cleaned.stats.retention(), GetParam().lo);
  EXPECT_LE(cleaned.stats.retention(), GetParam().hi);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, RetentionTest,
    ::testing::Values(RetentionCase{rockyou_profile, 0.89, 0.96},
                      RetentionCase{linkedin_profile, 0.78, 0.87},
                      RetentionCase{phpbb_profile, 0.96, 1.0},
                      RetentionCase{myspace_profile, 0.95, 1.0},
                      RetentionCase{yahoo_profile, 0.96, 1.0}));

TEST(Split, RatiosAndDisjointness) {
  std::vector<std::string> pws;
  for (int i = 0; i < 1000; ++i) pws.push_back("pw" + std::to_string(i));
  const auto s = split_712(pws, 42);
  EXPECT_EQ(s.train.size(), 700u);
  EXPECT_EQ(s.valid.size(), 100u);
  EXPECT_EQ(s.test.size(), 200u);
  std::unordered_set<std::string> all;
  for (const auto& v : {s.train, s.valid, s.test})
    for (const auto& pw : v) EXPECT_TRUE(all.insert(pw).second) << pw;
  EXPECT_EQ(all.size(), 1000u);
}

TEST(Split, DeterministicInSeed) {
  std::vector<std::string> pws;
  for (int i = 0; i < 100; ++i) pws.push_back("pw" + std::to_string(i));
  const auto a = split_712(pws, 9);
  const auto b = split_712(pws, 9);
  EXPECT_EQ(a.train, b.train);
  const auto c = split_712(pws, 10);
  EXPECT_NE(a.train, c.train);
}

TEST(Summarize, BasicStats) {
  const std::vector<std::string> pws = {"abc123", "love99", "x!y!",
                                        "1234"};
  const auto s = summarize(pws, 2);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean_length, 5.0);
  EXPECT_EQ(s.distinct_patterns, 4u);  // L3N3, L4N2, L1S1L1S1, N4
  ASSERT_EQ(s.top_patterns.size(), 2u);
}

TEST(Summarize, TopPatternsConvergeAcrossSites) {
  // The paper's observation: top patterns are consistent across datasets.
  const auto a = clean(generate_site(small_profile("a", 6000), 8));
  const auto b = clean(generate_site(small_profile("b", 6000), 8));
  const auto sa = summarize(a.passwords, 5);
  const auto sb = summarize(b.passwords, 5);
  // At least 3 of the top-5 patterns are shared.
  int shared = 0;
  for (const auto& [pat, _] : sa.top_patterns)
    for (const auto& [pbt, __] : sb.top_patterns)
      if (pat == pbt) ++shared;
  EXPECT_GE(shared, 3);
}

TEST(SiteProfiles, CrossSiteCorporaOverlapPartially) {
  // Cross-site evaluation needs overlap that is large but not total.
  auto ry = rockyou_profile();
  ry.unique_target = 6000;
  auto pb = phpbb_profile();
  pb.unique_target = 6000;
  const auto a = clean(generate_site(ry, 11));
  const auto b = clean(generate_site(pb, 11));
  std::unordered_set<std::string> sa(a.passwords.begin(), a.passwords.end());
  std::size_t overlap = 0;
  for (const auto& pw : b.passwords)
    if (sa.contains(pw)) ++overlap;
  const double frac = double(overlap) / double(b.passwords.size());
  EXPECT_GT(frac, 0.02);
  EXPECT_LT(frac, 0.9);
}

}  // namespace
}  // namespace ppg::data
