// Tensor: the storage type of the nn substrate.
//
// A Tensor is a cheap value-semantic handle (shallow copy) over shared
// float storage plus a gradient buffer of the same size. Shapes are dense
// row-major. The autograd engine (graph.h) creates tensors for op outputs
// and accumulates into `grad` during the backward pass; optimizers
// (optimizer.h) consume and zero parameter gradients. The gradient buffer
// is allocated (zero-filled) on the first grad() or zero_grad() call, so
// weights that are only ever read — every inference model — hold no
// gradient memory at all.
//
// This project only ever needs rank-1/2 tensors at the op interface —
// batched sequence data is handled as [batch*time, features] and the fused
// attention op carries (B, T, H) as explicit arguments — which keeps every
// kernel a simple 2-D loop the compiler can vectorise.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ppg::nn {

using Index = std::int64_t;

/// Dense row-major float tensor handle. Copies are shallow (shared storage);
/// use clone() for a deep copy.
class Tensor {
 public:
  /// Empty (null) tensor; most APIs reject it.
  Tensor() = default;

  /// Allocates a zero-initialised tensor of the given shape.
  explicit Tensor(std::vector<Index> shape)
      : shape_(std::move(shape)),
        data_(std::make_shared<std::vector<float>>(checked_numel(shape_), 0.f)),
        grad_(std::make_shared<std::vector<float>>()) {}

  /// Convenience: Tensor({m, n}).
  Tensor(std::initializer_list<Index> shape)
      : Tensor(std::vector<Index>(shape)) {}

  /// Builds a tensor wrapping a copy of `values` with the given shape.
  static Tensor from(std::vector<Index> shape, std::vector<float> values) {
    Tensor t(std::move(shape));
    if (values.size() != t.numel())
      throw std::invalid_argument("Tensor::from: value count != numel");
    *t.data_ = std::move(values);
    return t;
  }

  /// True when this handle owns storage.
  bool valid() const noexcept { return data_ != nullptr; }

  /// The shape vector.
  const std::vector<Index>& shape() const noexcept { return shape_; }

  /// Tensor rank.
  std::size_t rank() const noexcept { return shape_.size(); }

  /// Extent of dimension i.
  Index dim(std::size_t i) const {
    PPG_CHECK(i < shape_.size(), "dim %zu of a rank-%zu tensor", i,
              shape_.size());
    return shape_[i];
  }

  /// Total element count.
  std::size_t numel() const noexcept { return data_ ? data_->size() : 0; }

  // Constness of a Tensor handle is shallow (like shared_ptr): a const
  // Tensor means "this handle won't rebind", while the shared storage stays
  // writable. The autograd tape relies on this — backward closures capture
  // handles by value and accumulate into the shared grad buffers.

  /// View of the values (shared, writable).
  std::span<float> data() const noexcept {
    return {data_->data(), data_->size()};
  }

  /// View of the gradient buffer (shared, writable); the first call on
  /// this storage allocates it, zero-filled.
  std::span<float> grad() const {
    if (grad_->size() != data_->size()) grad_->assign(data_->size(), 0.f);
    return {grad_->data(), grad_->size()};
  }

  /// Whether the gradient buffer has been allocated yet.
  bool grad_allocated() const noexcept {
    return grad_ != nullptr && !grad_->empty();
  }

  // The at() accessors carry rank and bounds DCHECKs: free in release
  // builds (the macros compile out; bench_micro_nn confirmed identical
  // numbers), fatal with a precise diagnostic in Debug/sanitize builds —
  // an out-of-range offset here would otherwise read another tensor's
  // storage and surface as silently wrong numerics far away.

  /// Element access for rank-2 tensors.
  float& at(Index r, Index c) const {
    PPG_DCHECK(rank() == 2, "at(r,c) on a rank-%zu tensor", rank());
    PPG_DCHECK(r >= 0 && r < shape_[0], "row %lld outside [0, %lld)",
               static_cast<long long>(r), static_cast<long long>(shape_[0]));
    PPG_DCHECK(c >= 0 && c < shape_[1], "col %lld outside [0, %lld)",
               static_cast<long long>(c), static_cast<long long>(shape_[1]));
    return (*data_)[static_cast<std::size_t>(r * shape_[1] + c)];
  }

  /// Element access for rank-1 tensors.
  float& at(Index i) const {
    PPG_DCHECK(rank() == 1, "at(i) on a rank-%zu tensor", rank());
    PPG_DCHECK(i >= 0 && i < shape_[0], "index %lld outside [0, %lld)",
               static_cast<long long>(i), static_cast<long long>(shape_[0]));
    return (*data_)[static_cast<std::size_t>(i)];
  }

  /// Zeroes the gradient buffer (allocating it on first use).
  void zero_grad() const {
    grad_->assign(data_->size(), 0.f);
  }

  /// Fills values with a constant.
  void fill(float v) const noexcept {
    for (auto& x : *data_) x = v;
  }

  /// Fills values with N(0, stddev) draws from `rng`.
  void fill_normal(Rng& rng, float stddev) const {
    for (auto& x : *data_) x = static_cast<float>(rng.normal(0.0, stddev));
  }

  /// Fills values with U(-limit, limit) draws from `rng`.
  void fill_uniform(Rng& rng, float limit) const {
    for (auto& x : *data_)
      x = (2.f * rng.uniform_f() - 1.f) * limit;
  }

  /// Deep copy (fresh storage, gradients zeroed).
  Tensor clone() const {
    Tensor t(shape_);
    *t.data_ = *data_;
    return t;
  }

  /// Returns a handle sharing this storage but presenting `shape` (numel
  /// must match). Gradients are shared too, so reshape is autograd-neutral.
  Tensor reshaped(std::vector<Index> shape) const {
    if (checked_numel(shape) != numel())
      throw std::invalid_argument("Tensor::reshaped: numel mismatch");
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = data_;
    t.grad_ = grad_;
    return t;
  }

  /// True when two handles share storage.
  bool shares_storage_with(const Tensor& other) const noexcept {
    return data_ == other.data_;
  }

  /// Debug string like "[2, 3]".
  std::string shape_str() const {
    std::string s = "[";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
      if (i) s += ", ";
      s += std::to_string(shape_[i]);
    }
    return s + "]";
  }

 private:
  static std::size_t checked_numel(const std::vector<Index>& shape) {
    std::size_t n = 1;
    for (const Index d : shape) {
      if (d <= 0) throw std::invalid_argument("Tensor: nonpositive dimension");
      n *= static_cast<std::size_t>(d);
    }
    return n;
  }

  std::vector<Index> shape_;
  std::shared_ptr<std::vector<float>> data_;
  std::shared_ptr<std::vector<float>> grad_;
};

}  // namespace ppg::nn
