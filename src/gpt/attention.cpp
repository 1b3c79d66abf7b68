#include "gpt/attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

// The kernel mirrors GCC's -ffast-math vectorisation at the build's widest
// float vector (see attention.h); every other build runs the reference.
#if defined(__GNUC__) && !defined(__clang__) && defined(__FAST_MATH__) && \
    (defined(__AVX512F__) || defined(__AVX2__))
#define PPG_ATTENTION_KERNEL 1
#endif

namespace ppg::gpt {

namespace {

/// 1/√dh, from a run-time dh in both paths: -ffast-math computes it as a
/// reciprocal-sqrt estimate and a Newton step, which a compile-time dh
/// would fold to the exact quotient instead.
inline float score_scale(Index dh) {
  return 1.f / std::sqrt(static_cast<float>(dh));
}

/// One head's softmax numerators over positions [0, pos], in place, against
/// their max `mx`; returns 1 / their sum. Both paths run this loop, so it
/// vectorises (vector expf, lane-wise partial sums) the same way in both.
inline float exp_scores(float* scores, Index pos, float mx) {
  float z = 0.f;
  for (Index s = 0; s <= pos; ++s) {
    scores[s] = std::exp(scores[s] - mx);
    z += scores[s];
  }
  return 1.f / z;
}

#ifdef PPG_ATTENTION_KERNEL

#if defined(__AVX512F__)
constexpr int kBuildLanes = 16;
#else
constexpr int kBuildLanes = 8;
#endif

template <int L>
struct Lanes {
  typedef float Vec __attribute__((vector_size(L * sizeof(float))));
};

template <int L>
typename Lanes<L>::Vec load(const float* p) {
  typename Lanes<L>::Vec x;
  std::memcpy(&x, p, sizeof x);
  return x;
}

template <int L>
void store(float* p, typename Lanes<L>::Vec x) {
  std::memcpy(p, &x, sizeof x);
}

/// Makes x opaque to the optimiser at this point. The vectorised loop
/// rounds a head's first chunk product on its own (an fma onto zero) and
/// fuses each later chunk's product into the running sum, one chunk after
/// another; unrolled, -ffast-math could fuse the first product into the
/// next add instead, or regroup the chain for parallelism.
template <class V>
void pin(V& x) {
  asm("" : "+v"(x));
}

/// Source lane (0..2L-1 over x then y) of result lane i in a fold at block
/// size `block`: the result's first half gathers x's even (parity 0) or odd
/// (parity 1) blocks of `block` lanes, its second half y's.
constexpr int fold_lane(int lanes, int block, int parity, int i) {
  const int half = i < lanes / 2 ? 0 : 1, j = i % (lanes / 2);
  return half * lanes + (2 * (j / block) + parity) * block + j % block;
}

/// One tree level for the heads in x and y: each head's lane pairs
/// (i, i + block) within its 2·block lanes, added, packed in head order.
template <int L, int B, int... I>
typename Lanes<L>::Vec fold(typename Lanes<L>::Vec x, typename Lanes<L>::Vec y,
                            std::integer_sequence<int, I...>) {
  return __builtin_shufflevector(x, y, fold_lane(L, B, 0, I)...) +
         __builtin_shufflevector(x, y, fold_lane(L, B, 1, I)...);
}

/// One level of the halving tree at block size B over N registers of
/// partial sums (heads packed in order): pairs of registers fold into one,
/// and a lone register folds with itself. Recurses down to block size 1,
/// after which head h's sum is lane h of part[0] (H <= L).
template <int L, int B, int N>
void fold_level(typename Lanes<L>::Vec* part) {
  constexpr auto lanes = std::make_integer_sequence<int, L>();
  if constexpr (N == 1) {
    part[0] = fold<L, B>(part[0], part[0], lanes);
  } else {
#pragma GCC unroll 8
    for (int j = 0; j < N / 2; ++j)
      part[j] = fold<L, B>(part[2 * j], part[2 * j + 1], lanes);
  }
  if constexpr (B > 1) fold_level<L, B / 2, (N > 1 ? N / 2 : 1)>(part);
}

/// attend() for H heads of DH floats, each head C chunks of L lanes: the
/// build's vector width, or the 8-lane epilogue for heads of 8 under
/// AVX-512. Compile-time sizes keep q, the partial sums and the p·v
/// accumulators in registers.
template <int H, int DH>
void attend_fixed(const AttentionShape& shape, const float* q,
                  const KvBlock* blocks, Index offset, Index pos,
                  float* scores, float* out) {
  constexpr int L = DH % kBuildLanes == 0 ? kBuildLanes : 8;
  constexpr int C = DH / L, D = H * DH;
  static_assert(C * L == DH && H <= L);
  using Vec = typename Lanes<L>::Vec;
  const Index ctx = shape.context;
  const float scale = score_scale(shape.d / shape.heads);
  Vec qv[H * C];
#pragma GCC unroll 32
  for (int i = 0; i < H * C; ++i) qv[i] = load<L>(q + i * L);
  // q·k for every head of a position at once; the max of each head's
  // scores rides along (max is exact, so its order is free).
  Vec mx = Vec{} - 1e30f;
  for (Index s = 0; s <= pos; ++s) {
    const float* ks = blocks[s].get() + offset;
    Vec part[H];
#pragma GCC unroll 8
    for (int h = 0; h < H; ++h) {
      Vec acc = qv[h * C] * load<L>(ks + h * DH);
#pragma GCC unroll 4
      for (int c = 1; c < C; ++c) {
        pin(acc);
        acc = qv[h * C + c] * load<L>(ks + h * DH + c * L) + acc;
      }
      part[h] = acc;
    }
    fold_level<L, L / 2, H>(part);
    const Vec sv = part[0] * scale;
    mx = mx > sv ? mx : sv;
#pragma GCC unroll 8
    for (int h = 0; h < H; ++h) scores[h * ctx + s] = sv[h];
  }
  float inv[H];
  for (int h = 0; h < H; ++h)
    inv[h] = exp_scores(scores + h * ctx, pos, mx[h]);
  // p·v: one fma per position for each chunk of every head.
  Vec acc[H * C] = {};
  for (Index s = 0; s <= pos; ++s) {
    const float* vs = blocks[s].get() + offset + D;
#pragma GCC unroll 8
    for (int h = 0; h < H; ++h) {
      const Vec p = Vec{} + scores[h * ctx + s] * inv[h];
#pragma GCC unroll 4
      for (int c = 0; c < C; ++c)
        acc[h * C + c] = p * load<L>(vs + h * DH + c * L) + acc[h * C + c];
    }
  }
#pragma GCC unroll 32
  for (int i = 0; i < H * C; ++i) store<L>(out + i * L, acc[i]);
}

using AttendFn = void (*)(const AttentionShape&, const float*, const KvBlock*,
                         Index, Index, float*, float*);

/// The attend_fixed instance for `shape`, or null where there is none:
/// 2, 4 or 8 heads of 8, 16 or 32 floats, which covers every Config.
AttendFn kernel_for(const AttentionShape& shape) {
  static constexpr AttendFn kByHeadsAndWidth[3][3] = {
      {attend_fixed<2, 8>, attend_fixed<2, 16>, attend_fixed<2, 32>},
      {attend_fixed<4, 8>, attend_fixed<4, 16>, attend_fixed<4, 32>},
      {attend_fixed<8, 8>, attend_fixed<8, 16>, attend_fixed<8, 32>}};
  const auto log2_of = [](Index x, int lo, int hi) {
    for (int e = lo; e <= hi; ++e)
      if (x == (Index{1} << e)) return e - lo;
    return -1;
  };
  if (shape.heads <= 0 || shape.d % shape.heads != 0) return nullptr;
  const int h = log2_of(shape.heads, 1, 3);
  const int w = log2_of(shape.d / shape.heads, 3, 5);
  return h < 0 || w < 0 ? nullptr : kByHeadsAndWidth[h][w];
}

#endif  // PPG_ATTENTION_KERNEL

}  // namespace

void attend_reference(const AttentionShape& shape, const float* q,
                      const KvBlock* blocks, Index offset, Index pos,
                      float* scores, float* out) {
  const Index d = shape.d, heads = shape.heads, dh = d / heads;
  const float scale = score_scale(dh);
  for (Index hh = 0; hh < heads; ++hh) {
    const float* qh = q + hh * dh;
    float mx = -1e30f;
    for (Index s = 0; s <= pos; ++s) {
      const float* kh = blocks[s].get() + offset + hh * dh;
      float acc = 0.f;
      for (Index j = 0; j < dh; ++j) acc += qh[j] * kh[j];
      scores[s] = acc * scale;
      mx = std::max(mx, scores[s]);
    }
    const float inv = exp_scores(scores, pos, mx);
    float* oh = out + hh * dh;
    for (Index j = 0; j < dh; ++j) oh[j] = 0.f;
    for (Index s = 0; s <= pos; ++s) {
      const float p = scores[s] * inv;
      const float* vh = blocks[s].get() + offset + d + hh * dh;
      for (Index j = 0; j < dh; ++j) oh[j] += p * vh[j];
    }
  }
}

bool attention_kernel_covers([[maybe_unused]] const AttentionShape& shape) {
#ifdef PPG_ATTENTION_KERNEL
  return kernel_for(shape) != nullptr;
#else
  return false;
#endif
}

void attend(const AttentionShape& shape, const float* q, const KvBlock* blocks,
            Index offset, Index pos, float* scores, float* out) {
#ifdef PPG_ATTENTION_KERNEL
  if (const AttendFn kernel = kernel_for(shape))
    return kernel(shape, q, blocks, offset, pos, scores, out);
#endif
  attend_reference(shape, q, blocks, offset, pos, scores, out);
}

}  // namespace ppg::gpt
