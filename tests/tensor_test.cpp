#include "nn/tensor.h"

#include <gtest/gtest.h>

namespace ppg::nn {
namespace {

TEST(Tensor, ZeroInitialised) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (const float v : t.data()) EXPECT_EQ(v, 0.f);
  for (const float v : t.grad()) EXPECT_EQ(v, 0.f);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t({4, 5});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 4);
  EXPECT_EQ(t.dim(1), 5);
  EXPECT_EQ(t.shape_str(), "[4, 5]");
}

TEST(Tensor, RejectsNonpositiveDims) {
  EXPECT_THROW(Tensor({0, 3}), std::invalid_argument);
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, FromValues) {
  const Tensor t = Tensor::from({2, 2}, {1.f, 2.f, 3.f, 4.f});
  EXPECT_EQ(t.at(0, 0), 1.f);
  EXPECT_EQ(t.at(1, 1), 4.f);
}

TEST(Tensor, FromRejectsSizeMismatch) {
  EXPECT_THROW(Tensor::from({2, 2}, {1.f}), std::invalid_argument);
}

TEST(Tensor, CopiesShareStorage) {
  Tensor a({3});
  Tensor b = a;
  b.at(0) = 5.f;
  EXPECT_EQ(a.at(0), 5.f);
  EXPECT_TRUE(a.shares_storage_with(b));
}

TEST(Tensor, CloneIsDeep) {
  Tensor a({3});
  a.at(1) = 2.f;
  a.grad()[1] = 9.f;
  Tensor b = a.clone();
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(b.at(1), 2.f);
  EXPECT_EQ(b.grad()[1], 0.f);  // clone zeroes grads
  b.at(1) = 7.f;
  EXPECT_EQ(a.at(1), 2.f);
}

TEST(Tensor, ReshapeSharesStorageAndGrad) {
  Tensor a({2, 6});
  const Tensor b = a.reshaped({4, 3});
  EXPECT_TRUE(a.shares_storage_with(b));
  b.at(0, 0) = 3.f;
  EXPECT_EQ(a.at(0, 0), 3.f);
  b.grad()[5] = 1.f;
  EXPECT_EQ(a.grad()[5], 1.f);
}

TEST(Tensor, ReshapeRejectsNumelMismatch) {
  Tensor a({2, 3});
  EXPECT_THROW(a.reshaped({2, 4}), std::invalid_argument);
}

// The gradient buffer is allocated on first use, so a tensor that is only
// ever read (every inference weight) holds no gradient memory.
TEST(Tensor, GradBufferAllocatedOnFirstUse) {
  Tensor a({3, 4});
  const Tensor view = a.reshaped({12});
  const Tensor copy = a;
  a.fill(1.f);
  a.at(0, 0) = 2.f;
  const Tensor deep = a.clone();
  EXPECT_FALSE(a.grad_allocated());
  EXPECT_FALSE(view.grad_allocated());
  EXPECT_FALSE(deep.grad_allocated());

  view.grad()[11] = 5.f;  // allocates the buffer every handle shares
  EXPECT_TRUE(a.grad_allocated());
  EXPECT_TRUE(copy.grad_allocated());
  EXPECT_FALSE(deep.grad_allocated());
  ASSERT_EQ(a.grad().size(), 12u);
  for (std::size_t i = 0; i < 11; ++i) EXPECT_EQ(a.grad()[i], 0.f);
  EXPECT_EQ(a.grad()[11], 5.f);

  Tensor z({2});
  z.zero_grad();
  EXPECT_TRUE(z.grad_allocated());
  EXPECT_EQ(z.grad().size(), 2u);
}

TEST(Tensor, FillAndZeroGrad) {
  Tensor a({4});
  a.fill(2.5f);
  for (const float v : a.data()) EXPECT_EQ(v, 2.5f);
  a.grad()[2] = 1.f;
  a.zero_grad();
  for (const float v : a.grad()) EXPECT_EQ(v, 0.f);
}

TEST(Tensor, FillNormalHasSpread) {
  Tensor a({1000});
  Rng rng(1);
  a.fill_normal(rng, 0.5f);
  double sum = 0, sumsq = 0;
  for (const float v : a.data()) {
    sum += v;
    sumsq += double(v) * v;
  }
  EXPECT_NEAR(sum / 1000.0, 0.0, 0.08);
  EXPECT_NEAR(sumsq / 1000.0, 0.25, 0.06);
}

TEST(Tensor, FillUniformWithinLimit) {
  Tensor a({1000});
  Rng rng(2);
  a.fill_uniform(rng, 0.1f);
  for (const float v : a.data()) {
    EXPECT_GE(v, -0.1f);
    EXPECT_LE(v, 0.1f);
  }
}

TEST(Tensor, DefaultHandleInvalid) {
  const Tensor t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.numel(), 0u);
}

}  // namespace
}  // namespace ppg::nn
