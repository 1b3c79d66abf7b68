// gpt::attend (the decode attention kernel) against attend_reference (the
// per-(head, position) loop it replaces), bitwise, at every position of
// every model shape. Inputs are uniform over [-4, 4), so a sum folded in
// any other order than the reference's shows in the low bits. In builds
// where the kernel does not run (strict float, clang, no AVX2) attend() is
// the reference and the comparisons hold trivially; the decode goldens
// carry those flavours.
#include "gpt/attention.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gpt/model.h"

namespace ppg::gpt {
namespace {

struct NamedShape {
  const char* name;
  AttentionShape shape;
};

AttentionShape shape_of(const Config& c) {
  return {c.d_model, c.n_heads, c.context};
}

/// tiny d16/h2, small d32/h4, bench d64/h4, paper d256/h8: head widths
/// 8, 8, 16 and 32.
std::vector<NamedShape> model_shapes() {
  return {{"tiny", shape_of(Config::tiny())},
          {"small", shape_of(Config::small())},
          {"bench", shape_of(Config::bench())},
          {"paper", shape_of(Config::paper())}};
}

std::vector<float> uniform(std::size_t n, Rng& rng) {
  std::vector<float> out(n);
  for (float& x : out) x = static_cast<float>(rng.uniform() * 8.0 - 4.0);
  return out;
}

/// A row of `positions` KV blocks for a two-layer model of width d, every
/// float uniform; attending at layer 1 (offset 2·d) reads each block's
/// second half.
constexpr Index kLayers = 2;
std::vector<KvBlock> uniform_blocks(Index positions, Index d, Rng& rng) {
  std::vector<KvBlock> blocks;
  for (Index s = 0; s < positions; ++s) {
    const std::vector<float> floats =
        uniform(static_cast<std::size_t>(2 * kLayers * d), rng);
    auto block = std::make_shared_for_overwrite<float[]>(floats.size());
    std::memcpy(block.get(), floats.data(), floats.size() * sizeof(float));
    blocks.push_back(std::move(block));
  }
  return blocks;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(AttentionKernel, CoversEveryModelShapeInVectorBuilds) {
#if defined(__GNUC__) && !defined(__clang__) && defined(__FAST_MATH__) && \
    (defined(__AVX512F__) || defined(__AVX2__))
  const bool vector_build = true;
#else
  const bool vector_build = false;
#endif
  for (const NamedShape& s : model_shapes())
    EXPECT_EQ(attention_kernel_covers(s.shape), vector_build) << s.name;
  std::printf("attention kernel %s in this build\n",
              vector_build ? "runs" : "is the reference loop");
  // Shapes other than 2, 4 or 8 heads of 8, 16 or 32 floats run the
  // reference in every build.
  EXPECT_FALSE(attention_kernel_covers({24, 3, 32}));
  EXPECT_FALSE(attention_kernel_covers({12, 3, 32}));
  EXPECT_FALSE(attention_kernel_covers({48, 2, 32}));
}

TEST(AttentionKernel, MatchesReferenceBitwiseAtEveryPosition) {
  Rng rng(7);
  for (const NamedShape& s : model_shapes()) {
    const AttentionShape& a = s.shape;
    const std::vector<KvBlock> blocks = uniform_blocks(a.context, a.d, rng);
    std::vector<float> scores(static_cast<std::size_t>(a.heads * a.context));
    std::vector<float> want(static_cast<std::size_t>(a.d));
    std::vector<float> got(want.size());
    for (Index pos = 0; pos < a.context; ++pos) {
      const std::vector<float> q = uniform(want.size(), rng);
      for (Index layer = 0; layer < kLayers; ++layer) {
        const Index offset = 2 * layer * a.d;
        attend_reference(a, q.data(), blocks.data(), offset, pos,
                         scores.data(), want.data());
        attend(a, q.data(), blocks.data(), offset, pos, scores.data(),
               got.data());
        ASSERT_TRUE(same_bits(want, got))
            << s.name << " pos " << pos << " layer " << layer;
      }
    }
  }
}

TEST(AttentionKernel, RaggedRowsWithIdleRowsMatchReference) {
  // Rows with their own block lists at different positions, attended one
  // after another through one shared score buffer as the session does;
  // idle rows are skipped and their outputs stay untouched.
  Rng rng(8);
  constexpr Index kIdle = -1;
  const std::vector<Index> positions = {0, 7, kIdle, 31, 3, kIdle, 16};
  const auto rows = static_cast<Index>(positions.size());
  for (const NamedShape& s : model_shapes()) {
    const AttentionShape& a = s.shape;
    std::vector<std::vector<KvBlock>> blocks;
    for (Index r = 0; r < rows; ++r)
      blocks.push_back(uniform_blocks(a.context, a.d, rng));
    const std::vector<float> q =
        uniform(static_cast<std::size_t>(rows * a.d), rng);
    std::vector<float> shared(static_cast<std::size_t>(a.heads * a.context));
    std::vector<float> own(shared.size());
    std::vector<float> got(q.size(), 0.5f), want(q.size(), 0.5f);
    const Index offset = 2 * a.d;  // layer 1
    for (Index r = 0; r < rows; ++r) {
      const Index pos = positions[static_cast<std::size_t>(r)];
      if (pos == kIdle) continue;
      const KvBlock* row = blocks[static_cast<std::size_t>(r)].data();
      attend(a, q.data() + r * a.d, row, offset, pos, shared.data(),
             got.data() + r * a.d);
      attend_reference(a, q.data() + r * a.d, row, offset, pos, own.data(),
                       want.data() + r * a.d);
    }
    EXPECT_TRUE(same_bits(want, got)) << s.name;
  }
}

}  // namespace
}  // namespace ppg::gpt
