// Decode-step attention for one InferenceSession row: the query of the
// position being fed against the keys and values of the row's positions,
// read through the row's list of per-position KV blocks.
//
// attend() computes, for each head, softmax(q·kₛ/√dh) over the cached
// positions s = 0..pos and the p-weighted sum of the vₛ, with every float
// bitwise equal to attend_reference(), the per-(head, position) loop the
// decode goldens and perfbench digests were recorded with. That loop's
// floats depend on how the compiler vectorises it, so attend() reproduces
// the build's own order:
//
//  * q·k. -ffast-math lets GCC vectorise each head's dot product as a
//    reduction over W-lane partial sums: the first W-wide chunk's products,
//    then one fma per further chunk, then a W → 1 halving tree (lane i adds
//    lane i + W/2, then i + W/4, …). W is the build's vector width, 16
//    floats under AVX-512 and 8 under AVX2; a head of 8 under AVX-512 runs
//    in the loop's 8-lane epilogue, the same tree over 8 lanes. attend()
//    computes those partial sums for all heads of a position at once and
//    folds the heads together, two registers per add, with lane shuffles
//    that keep each head's tree: for 8 lanes,
//    ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)). Every tree level adds two
//    shuffles of the level before, and each chunk's partial sum is pinned
//    before the next fma, so -ffast-math cannot regroup either.
//  * scale. 1/√dh comes from a run-time dh in both paths (fast-math makes
//    it an estimate plus a Newton step, not the exact quotient).
//  * softmax. Each head's exp-and-sum loop is one shared function, so both
//    paths vectorise it alike; the max it subtracts is exact in any order.
//  * p·v. Each output float is one fma per position, in position order,
//    in both paths; attend() issues it for every head of a position.
//
// attend() runs the reference where it cannot promise that order: builds
// other than GCC with -ffast-math and AVX2 or AVX-512 (the sanitizer
// flavour, clang), and shapes other than 2, 4 or 8 heads of 8, 16 or 32
// floats, which every Config is. tests/attention_test.cpp checks the two
// paths bitwise at every position of every Config's shape.
#pragma once

#include <memory>

#include "nn/tensor.h"

namespace ppg::gpt {

using nn::Index;

/// One position's keys and values for every layer of a model:
/// 2·n_layers·d_model floats, layer l's K at offset 2·l·d_model and its V
/// the d_model floats after it. The step that computes the position writes
/// its block once; from then on every session row and KvState holding the
/// position shares the block by reference and only reads it.
using KvBlock = std::shared_ptr<const float[]>;

/// One layer's attention geometry: d_model = heads × head width, and the
/// context length, which is the stride of the per-head score rows.
struct AttentionShape {
  Index d = 0;
  Index heads = 0;
  Index context = 0;
};

/// One row's attention output (d floats) at position `pos`. `q` holds the
/// row's d query floats; `blocks` holds the row's blocks for positions
/// [0, pos], and position s's K for this layer is the d floats at
/// blocks[s] + offset, its V the d floats after them. `scores` is scratch of
/// heads × context floats.
void attend(const AttentionShape& shape, const float* q, const KvBlock* blocks,
            Index offset, Index pos, float* scores, float* out);

/// The per-(head, position) loop attend() reproduces; it uses only the
/// first context floats of `scores`. The tests' oracle, and the path for
/// builds and shapes the kernel does not cover.
void attend_reference(const AttentionShape& shape, const float* q,
                      const KvBlock* blocks, Index offset, Index pos,
                      float* scores, float* out);

/// Whether attend() runs the vector kernel for `shape` in this build.
bool attention_kernel_covers(const AttentionShape& shape);

}  // namespace ppg::gpt
