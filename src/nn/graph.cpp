#include "nn/graph.h"

#include "nn/kernels.h"

#include <cmath>
#include <stdexcept>

namespace ppg::nn {
namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

constexpr float kInvSqrt2 = 0.7071067811865475f;
constexpr float kInvSqrt2Pi = 0.3989422804014327f;

}  // namespace

// ---- core linear algebra ---------------------------------------------

Tensor Graph::matmul(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
  require(a.dim(1) == b.dim(0), "matmul: inner dimensions differ");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  kernels::gemm_nn(m, n, k, a.data().data(), b.data().data(), out.data().data());
  record([a, b, out, m, n, k]() mutable {
    // dA += dC · Bᵀ ; dB += Aᵀ · dC
    kernels::gemm_nt(m, k, n, out.grad().data(), b.data().data(), a.grad().data());
    kernels::gemm_tn(k, n, m, a.data().data(), out.grad().data(), b.grad().data());
  });
  return out;
}

Tensor Graph::linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  require(x.rank() == 2 && w.rank() == 2 && bias.rank() == 1,
          "linear: x,W rank-2 and bias rank-1 required");
  require(x.dim(1) == w.dim(0), "linear: x/W inner dimensions differ");
  require(bias.dim(0) == w.dim(1), "linear: bias length != output width");
  const Index m = x.dim(0), k = x.dim(1), n = w.dim(1);
  Tensor out({m, n});
  float* o = out.data().data();
  const float* bv = bias.data().data();
  for (Index i = 0; i < m; ++i)
    for (Index j = 0; j < n; ++j) o[i * n + j] = bv[j];
  kernels::gemm_nn(m, n, k, x.data().data(), w.data().data(), o);
  record([x, w, bias, out, m, n, k]() mutable {
    kernels::gemm_nt(m, k, n, out.grad().data(), w.data().data(), x.grad().data());
    kernels::gemm_tn(k, n, m, x.data().data(), out.grad().data(), w.grad().data());
    float* db = bias.grad().data();
    const float* dout = out.grad().data();
    for (Index i = 0; i < m; ++i)
      for (Index j = 0; j < n; ++j) db[j] += dout[i * n + j];
  });
  return out;
}

// ---- elementwise -------------------------------------------------------

namespace {
void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) throw std::invalid_argument(std::string(op) + ": shape mismatch");
}
}  // namespace

Tensor Graph::add(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add");
  Tensor out(a.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] + b.data()[i];
  record([a, b, out, n]() mutable {
    const float* go = out.grad().data();
    float* ga = a.grad().data();
    float* gb = b.grad().data();
    for (std::size_t i = 0; i < n; ++i) {
      const float g = go[i];
      ga[i] += g;
      gb[i] += g;
    }
  });
  return out;
}

Tensor Graph::sub(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "sub");
  Tensor out(a.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] - b.data()[i];
  record([a, b, out, n]() mutable {
    const float* go = out.grad().data();
    float* ga = a.grad().data();
    float* gb = b.grad().data();
    for (std::size_t i = 0; i < n; ++i) {
      const float g = go[i];
      ga[i] += g;
      gb[i] -= g;
    }
  });
  return out;
}

Tensor Graph::mul(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "mul");
  Tensor out(a.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = a.data()[i] * b.data()[i];
  record([a, b, out, n]() mutable {
    const float* go = out.grad().data();
    float* ga = a.grad().data();
    float* gb = b.grad().data();
    for (std::size_t i = 0; i < n; ++i) {
      const float g = go[i];
      ga[i] += g * b.data()[i];
      gb[i] += g * a.data()[i];
    }
  });
  return out;
}

Tensor Graph::mul_row(const Tensor& x, const Tensor& v) {
  require(x.rank() == 2 && v.rank() == 1, "mul_row: need rank-2 x, rank-1 v");
  require(x.dim(1) == v.dim(0), "mul_row: width mismatch");
  const Index m = x.dim(0), n = x.dim(1);
  Tensor out({m, n});
  for (Index i = 0; i < m; ++i)
    for (Index j = 0; j < n; ++j) out.at(i, j) = x.at(i, j) * v.at(j);
  record([x, v, out, m, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    float* gv = v.grad().data();
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < n; ++j) {
        const float g = go[i * n + j];
        gx[i * n + j] += g * v.at(j);
        gv[j] += g * x.at(i, j);
      }
    }
  });
  return out;
}

Tensor Graph::scale(const Tensor& x, float c) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = x.data()[i] * c;
  record([x, out, n, c]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) gx[i] += go[i] * c;
  });
  return out;
}

Tensor Graph::add_scalar(const Tensor& x, float c) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = x.data()[i] + c;
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) gx[i] += go[i];
  });
  return out;
}

Tensor Graph::gelu(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x.data()[i];
    out.data()[i] = 0.5f * v * (1.f + std::erf(v * kInvSqrt2));
  }
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) {
      const float v = x.data()[i];
      const float cdf = 0.5f * (1.f + std::erf(v * kInvSqrt2));
      const float pdf = kInvSqrt2Pi * std::exp(-0.5f * v * v);
      gx[i] += go[i] * (cdf + v * pdf);
    }
  });
  return out;
}

Tensor Graph::relu(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i)
    out.data()[i] = x.data()[i] > 0.f ? x.data()[i] : 0.f;
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i)
      if (x.data()[i] > 0.f) gx[i] += go[i];
  });
  return out;
}

Tensor Graph::tanh_op(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = std::tanh(x.data()[i]);
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) {
      const float t = out.data()[i];
      gx[i] += go[i] * (1.f - t * t);
    }
  });
  return out;
}

Tensor Graph::sigmoid(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i)
    out.data()[i] = 1.f / (1.f + std::exp(-x.data()[i]));
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) {
      const float s = out.data()[i];
      gx[i] += go[i] * s * (1.f - s);
    }
  });
  return out;
}

Tensor Graph::exp_op(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = std::exp(x.data()[i]);
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) gx[i] += go[i] * out.data()[i];
  });
  return out;
}

Tensor Graph::log_op(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i) out.data()[i] = std::log(x.data()[i]);
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) gx[i] += go[i] / x.data()[i];
  });
  return out;
}

Tensor Graph::square(const Tensor& x) {
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  for (std::size_t i = 0; i < n; ++i)
    out.data()[i] = x.data()[i] * x.data()[i];
  record([x, out, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) gx[i] += go[i] * 2.f * x.data()[i];
  });
  return out;
}

Tensor Graph::dropout(const Tensor& x, float p, Rng& rng) {
  require(p >= 0.f && p < 1.f, "dropout: p must be in [0,1)");
  if (p == 0.f) return x;  // identity; no tape entry needed
  Tensor out(x.shape());
  const std::size_t n = out.numel();
  auto mask = std::make_shared<std::vector<float>>(n);
  const float keep_scale = 1.f / (1.f - p);
  for (std::size_t i = 0; i < n; ++i) {
    const float m = rng.uniform_f() >= p ? keep_scale : 0.f;
    (*mask)[i] = m;
    out.data()[i] = x.data()[i] * m;
  }
  record([x, out, mask, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (std::size_t i = 0; i < n; ++i) gx[i] += go[i] * (*mask)[i];
  });
  return out;
}

// ---- reductions ----------------------------------------------------------

Tensor Graph::sum_all(const Tensor& x) {
  Tensor out({1});
  float acc = 0.f;
  for (const float v : x.data()) acc += v;
  out.at(0) = acc;
  record([x, out]() mutable {
    const float g = out.grad()[0];
    for (auto& gx : x.grad()) gx += g;
  });
  return out;
}

Tensor Graph::mean_all(const Tensor& x) {
  Tensor out({1});
  float acc = 0.f;
  for (const float v : x.data()) acc += v;
  const float inv = 1.f / static_cast<float>(x.numel());
  out.at(0) = acc * inv;
  record([x, out, inv]() mutable {
    const float g = out.grad()[0] * inv;
    for (auto& gx : x.grad()) gx += g;
  });
  return out;
}

// ---- shape surgery --------------------------------------------------------

Tensor Graph::slice_cols(const Tensor& x, Index lo, Index hi) {
  require(x.rank() == 2, "slice_cols: rank-2 tensor required");
  require(0 <= lo && lo < hi && hi <= x.dim(1), "slice_cols: bad range");
  const Index m = x.dim(0), w = x.dim(1), out_w = hi - lo;
  Tensor out({m, out_w});
  for (Index i = 0; i < m; ++i)
    for (Index j = 0; j < out_w; ++j) out.at(i, j) = x.at(i, lo + j);
  record([x, out, m, w, lo, out_w]() mutable {
    float* gx = x.grad().data();
    const float* go = out.grad().data();
    for (Index i = 0; i < m; ++i)
      for (Index j = 0; j < out_w; ++j)
        gx[i * w + lo + j] += go[i * out_w + j];
  });
  return out;
}

Tensor Graph::concat_cols(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2, "concat_cols: rank-2 required");
  require(a.dim(0) == b.dim(0), "concat_cols: row counts differ");
  const Index m = a.dim(0), wa = a.dim(1), wb = b.dim(1);
  Tensor out({m, wa + wb});
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < wa; ++j) out.at(i, j) = a.at(i, j);
    for (Index j = 0; j < wb; ++j) out.at(i, wa + j) = b.at(i, j);
  }
  record([a, b, out, m, wa, wb]() mutable {
    const float* go = out.grad().data();
    float* ga = a.grad().data();
    float* gb = b.grad().data();
    const Index w = wa + wb;
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < wa; ++j) ga[i * wa + j] += go[i * w + j];
      for (Index j = 0; j < wb; ++j) gb[i * wb + j] += go[i * w + wa + j];
    }
  });
  return out;
}

// ---- fused neural ops ------------------------------------------------------

Tensor Graph::softmax_rows(const Tensor& x) {
  require(x.rank() == 2, "softmax_rows: rank-2 tensor required");
  const Index m = x.dim(0), n = x.dim(1);
  Tensor out({m, n});
  // Forward through the dispatched kernel (backend-invariant bits); the
  // backward below only needs out, which softmax_rows fully determines.
  kernels::softmax_rows(m, n, x.data().data(), out.data().data());
  record([x, out, m, n]() mutable {
    const float* go = out.grad().data();
    float* gx = x.grad().data();
    for (Index i = 0; i < m; ++i) {
      float dot = 0.f;
      for (Index j = 0; j < n; ++j) dot += go[i * n + j] * out.at(i, j);
      for (Index j = 0; j < n; ++j)
        gx[i * n + j] += out.at(i, j) * (go[i * n + j] - dot);
    }
  });
  return out;
}

Tensor Graph::layernorm(const Tensor& x, const Tensor& gain,
                        const Tensor& bias, float eps) {
  require(x.rank() == 2, "layernorm: rank-2 tensor required");
  const Index m = x.dim(0), d = x.dim(1);
  require(gain.rank() == 1 && gain.dim(0) == d, "layernorm: bad gain shape");
  require(bias.rank() == 1 && bias.dim(0) == d, "layernorm: bad bias shape");
  Tensor out({m, d});
  auto rstd = std::make_shared<std::vector<float>>(m);
  auto xhat = std::make_shared<std::vector<float>>(m * d);
  const float invd = 1.f / static_cast<float>(d);
  for (Index i = 0; i < m; ++i) {
    const float* xr = x.data().data() + i * d;
    float mean = 0.f;
    for (Index j = 0; j < d; ++j) mean += xr[j];
    mean *= invd;
    float var = 0.f;
    for (Index j = 0; j < d; ++j) {
      const float c = xr[j] - mean;
      var += c * c;
    }
    var *= invd;
    const float rs = 1.f / std::sqrt(var + eps);
    (*rstd)[i] = rs;
    float* xh = xhat->data() + i * d;
    float* o = out.data().data() + i * d;
    for (Index j = 0; j < d; ++j) {
      xh[j] = (xr[j] - mean) * rs;
      o[j] = xh[j] * gain.at(j) + bias.at(j);
    }
  }
  record([x, gain, bias, out, rstd, xhat, m, d, invd]() mutable {
    float* ggain = gain.grad().data();
    float* gbias = bias.grad().data();
    for (Index i = 0; i < m; ++i) {
      const float* go = out.grad().data() + i * d;
      const float* xh = xhat->data() + i * d;
      float* gx = x.grad().data() + i * d;
      const float rs = (*rstd)[i];
      // dxhat_j = go_j * gain_j; dx follows the standard layernorm backward.
      float sum_dxhat = 0.f, sum_dxhat_xhat = 0.f;
      for (Index j = 0; j < d; ++j) {
        const float dxh = go[j] * gain.at(j);
        sum_dxhat += dxh;
        sum_dxhat_xhat += dxh * xh[j];
        ggain[j] += go[j] * xh[j];
        gbias[j] += go[j];
      }
      for (Index j = 0; j < d; ++j) {
        const float dxh = go[j] * gain.at(j);
        gx[j] += rs * (dxh - invd * sum_dxhat - invd * xh[j] * sum_dxhat_xhat);
      }
    }
  });
  return out;
}

Tensor Graph::embedding(const std::vector<int>& ids, const Tensor& table) {
  require(table.rank() == 2, "embedding: table must be rank-2");
  const Index v = table.dim(0), d = table.dim(1);
  const Index m = static_cast<Index>(ids.size());
  for (const int id : ids)
    require(id >= 0 && id < v, "embedding: id out of range");
  Tensor out({m, d});
  for (Index i = 0; i < m; ++i) {
    const float* row = table.data().data() + static_cast<Index>(ids[i]) * d;
    float* o = out.data().data() + i * d;
    for (Index j = 0; j < d; ++j) o[j] = row[j];
  }
  record([ids, table, out, m, d]() mutable {
    for (Index i = 0; i < m; ++i) {
      float* grow = table.grad().data() + static_cast<Index>(ids[i]) * d;
      const float* go = out.grad().data() + i * d;
      for (Index j = 0; j < d; ++j) grow[j] += go[j];
    }
  });
  return out;
}

Tensor Graph::causal_self_attention(const Tensor& qkv, Index batch, Index time,
                                    Index heads) {
  require(qkv.rank() == 2, "attention: qkv must be rank-2");
  require(qkv.dim(0) == batch * time, "attention: rows != batch*time");
  require(qkv.dim(1) % 3 == 0, "attention: width must be 3*d_model");
  const Index d = qkv.dim(1) / 3;
  require(d % heads == 0, "attention: d_model not divisible by heads");
  const Index dh = d / heads;
  const float scale = 1.f / std::sqrt(static_cast<float>(dh));
  Tensor out({batch * time, d});
  // Attention probabilities saved per (batch, head): time x time, full
  // square with zeros above the diagonal.
  auto probs =
      std::make_shared<std::vector<float>>(batch * heads * time * time, 0.f);

  const Index w = 3 * d;
  const float* qkv_p = qkv.data().data();
  float* out_p = out.data().data();
  for (Index b = 0; b < batch; ++b) {
    for (Index h = 0; h < heads; ++h) {
      float* pmat = probs->data() + (b * heads + h) * time * time;
      const Index qoff = h * dh, koff = d + h * dh, voff = 2 * d + h * dh;
      for (Index t = 0; t < time; ++t) {
        const float* qrow = qkv_p + (b * time + t) * w + qoff;
        float* prow = pmat + t * time;
        float mx = -1e30f;
        for (Index s = 0; s <= t; ++s) {
          const float* krow = qkv_p + (b * time + s) * w + koff;
          float acc = 0.f;
          for (Index j = 0; j < dh; ++j) acc += qrow[j] * krow[j];
          prow[s] = acc * scale;
          mx = std::max(mx, prow[s]);
        }
        float z = 0.f;
        for (Index s = 0; s <= t; ++s) {
          prow[s] = std::exp(prow[s] - mx);
          z += prow[s];
        }
        const float inv = 1.f / z;
        float* orow = out_p + (b * time + t) * d + h * dh;
        for (Index j = 0; j < dh; ++j) orow[j] = 0.f;
        for (Index s = 0; s <= t; ++s) {
          prow[s] *= inv;
          const float p = prow[s];
          const float* vrow = qkv_p + (b * time + s) * w + voff;
          for (Index j = 0; j < dh; ++j) orow[j] += p * vrow[j];
        }
      }
    }
  }

  record([qkv, out, probs, batch, time, heads, d, dh, scale, w]() mutable {
    const float* qkv_p = qkv.data().data();
    float* gqkv = qkv.grad().data();
    const float* gout = out.grad().data();
    std::vector<float> dp(time);  // scratch: dP row
    for (Index b = 0; b < batch; ++b) {
      for (Index h = 0; h < heads; ++h) {
        const float* pmat = probs->data() + (b * heads + h) * time * time;
        const Index qoff = h * dh, koff = d + h * dh, voff = 2 * d + h * dh;
        for (Index t = 0; t < time; ++t) {
          const float* prow = pmat + t * time;
          const float* gorow = gout + (b * time + t) * d + h * dh;
          // dV[s] += P[t,s] * dOut[t]; dP[t,s] = dOut[t]·V[s]
          for (Index s = 0; s <= t; ++s) {
            const float* vrow = qkv_p + (b * time + s) * w + voff;
            float* gvrow = gqkv + (b * time + s) * w + voff;
            float acc = 0.f;
            const float p = prow[s];
            for (Index j = 0; j < dh; ++j) {
              gvrow[j] += p * gorow[j];
              acc += gorow[j] * vrow[j];
            }
            dp[s] = acc;
          }
          // softmax backward: dS = P ∘ (dP - Σ dP∘P)
          float dot = 0.f;
          for (Index s = 0; s <= t; ++s) dot += dp[s] * prow[s];
          const float* qrow = qkv_p + (b * time + t) * w + qoff;
          float* gqrow = gqkv + (b * time + t) * w + qoff;
          for (Index s = 0; s <= t; ++s) {
            const float ds = prow[s] * (dp[s] - dot) * scale;
            const float* krow = qkv_p + (b * time + s) * w + koff;
            float* gkrow = gqkv + (b * time + s) * w + koff;
            for (Index j = 0; j < dh; ++j) {
              gqrow[j] += ds * krow[j];
              gkrow[j] += ds * qrow[j];
            }
          }
        }
      }
    }
  });
  return out;
}

Tensor Graph::cross_entropy(const Tensor& logits,
                            const std::vector<int>& targets,
                            int ignore_index) {
  require(logits.rank() == 2, "cross_entropy: logits must be rank-2");
  const Index m = logits.dim(0), v = logits.dim(1);
  require(static_cast<Index>(targets.size()) == m,
          "cross_entropy: target count != rows");
  Tensor out({1});
  auto probs = std::make_shared<std::vector<float>>(m * v);
  Index counted = 0;
  double loss = 0.0;
  for (Index i = 0; i < m; ++i) {
    const float* row = logits.data().data() + i * v;
    float* prow = probs->data() + i * v;
    float mx = row[0];
    for (Index j = 1; j < v; ++j) mx = std::max(mx, row[j]);
    float z = 0.f;
    for (Index j = 0; j < v; ++j) {
      prow[j] = std::exp(row[j] - mx);
      z += prow[j];
    }
    const float inv = 1.f / z;
    for (Index j = 0; j < v; ++j) prow[j] *= inv;
    const int t = targets[i];
    if (t == ignore_index) continue;
    require(t >= 0 && t < v, "cross_entropy: target out of range");
    loss += -std::log(std::max(prow[t], 1e-30f));
    ++counted;
  }
  require(counted > 0, "cross_entropy: every target was ignored");
  out.at(0) = static_cast<float>(loss / counted);
  record([logits, out, probs, targets, ignore_index, m, v, counted]() mutable {
    const float g = out.grad()[0] / static_cast<float>(counted);
    float* gl = logits.grad().data();
    for (Index i = 0; i < m; ++i) {
      const int t = targets[i];
      if (t == ignore_index) continue;
      const float* prow = probs->data() + i * v;
      float* grow = gl + i * v;
      for (Index j = 0; j < v; ++j) grow[j] += g * prow[j];
      grow[t] -= g;
    }
  });
  return out;
}

// ---- engine ------------------------------------------------------------

void Graph::backward(const Tensor& loss) {
  // A null loss handle means the caller never ran a forward pass on this
  // graph — replaying the tape would scribble gradients into freed or
  // unrelated storage, so this is a fatal invariant, not an API throw.
  PPG_CHECK(loss.valid(), "Graph::backward: loss tensor has no storage");
  if (loss.numel() != 1)
    throw std::invalid_argument("Graph::backward: loss must be a scalar");
  loss.grad()[0] += 1.f;
  for (auto it = tape_.rbegin(); it != tape_.rend(); ++it) {
    PPG_DCHECK(*it != nullptr, "tape entry lost its closure");
    (*it)();
  }
}

}  // namespace ppg::nn
