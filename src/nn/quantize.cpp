#include "nn/quantize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "trace/trace.hpp"

namespace sfc::nn {
namespace {

/// Span name of one forward layer, indexed by QuantOp::Kind.
constexpr const char* kLayerSpan[] = {"nn.layer.conv", "nn.layer.dense",
                                      "nn.layer.pool", "nn.layer.flatten"};
static_assert(std::size(kLayerSpan) ==
              static_cast<std::size_t>(QuantOp::Kind::kFlatten) + 1);

struct Geometry {
  int c = 0, h = 0, w = 0;
  bool flat = false;
  int features() const { return flat ? c : c * h * w; }
};

Geometry advance(const Geometry& g, const QuantOp& op) {
  Geometry out = g;
  switch (op.kind) {
    case QuantOp::Kind::kConv:
      assert(!g.flat && g.c == op.in_channels);
      out.c = op.out_channels;
      out.h = g.h + 2 * op.padding - op.kernel + 1;
      out.w = g.w + 2 * op.padding - op.kernel + 1;
      break;
    case QuantOp::Kind::kPool:
      assert(!g.flat);
      out.h = g.h / op.pool_window;
      out.w = g.w / op.pool_window;
      break;
    case QuantOp::Kind::kFlatten:
      out.c = g.c * g.h * g.w;
      out.h = out.w = 1;
      out.flat = true;
      break;
    case QuantOp::Kind::kDense:
      assert(g.features() == op.in_features);
      out.c = op.out_features;
      out.h = out.w = 1;
      out.flat = true;
      break;
  }
  return out;
}

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    m = std::max(m, std::fabs(t[i]));
  }
  return m;
}

std::vector<std::int8_t> quantize_weights(const Tensor& w, int magnitude_max,
                                          float* scale_out) {
  const float peak = std::max(max_abs(w), 1e-8f);
  const auto mag = static_cast<float>(magnitude_max);
  const float scale = peak / mag;
  std::vector<std::int8_t> q(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float v = std::round(w[i] / scale);
    q[i] = static_cast<std::int8_t>(std::clamp(v, -mag, mag));
  }
  *scale_out = scale;
  return q;
}

}  // namespace

void DotEngine::dot_batch(std::span<const std::uint8_t> a,
                          std::span<const std::int8_t> weights,
                          std::size_t row_stride, std::size_t rows,
                          std::int64_t* out) {
  assert(rows == 0 || weights.size() >= (rows - 1) * row_stride + a.size());
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot(a, weights.subspan(r * row_stride, a.size()));
  }
}

std::int64_t IdealDotEngine::dot(std::span<const std::uint8_t> a,
                                 std::span<const std::int8_t> w) {
  assert(a.size() == w.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(w[i]);
  }
  return acc;
}

QuantizedNetwork QuantizedNetwork::from_model(
    Sequential& model, const sfc::data::Dataset& calibration,
    int max_calibration_images, QuantizeOptions options) {
  QuantizedNetwork qn;
  qn.options_ = options;
  const int wmag = options.weight_magnitude_max();
  const float act_levels = static_cast<float>(options.activation_levels());

  // Pass 1: structural conversion.
  for (std::size_t li = 0; li < model.num_layers(); ++li) {
    Layer& layer = model.layer(li);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::kConv;
      op.in_channels = conv->in_channels();
      op.out_channels = conv->out_channels();
      op.kernel = conv->kernel();
      op.padding = conv->padding();
      op.weight = quantize_weights(conv->weight(), wmag, &op.w_scale);
      op.bias.assign(conv->bias().data(),
                     conv->bias().data() + conv->bias().size());
      qn.ops_.push_back(std::move(op));
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::kDense;
      op.in_features = dense->in_features();
      op.out_features = dense->out_features();
      op.weight = quantize_weights(dense->weight(), wmag, &op.w_scale);
      op.bias.assign(dense->bias().data(),
                     dense->bias().data() + dense->bias().size());
      qn.ops_.push_back(std::move(op));
    } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::kPool;
      (void)pool;
      qn.ops_.push_back(std::move(op));
    } else if (dynamic_cast<Flatten*>(&layer) != nullptr) {
      QuantOp op;
      op.kind = QuantOp::Kind::kFlatten;
      qn.ops_.push_back(std::move(op));
    } else if (dynamic_cast<Relu*>(&layer) != nullptr) {
      if (qn.ops_.empty()) {
        throw std::runtime_error("QuantizedNetwork: leading ReLU unsupported");
      }
      qn.ops_.back().relu = true;
    } else if (dynamic_cast<Dropout*>(&layer) != nullptr) {
      // Inference no-op.
    } else {
      throw std::runtime_error("QuantizedNetwork: unsupported layer " +
                               layer.name());
    }
  }

  // Pass 2: activation-scale calibration on the float model. The network
  // is executed in float with dequantized weights (matching what the
  // integer path will compute) and the max post-ReLU output of every
  // conv/dense op is recorded.
  std::vector<float> act_max(qn.ops_.size(), 1e-6f);
  const int num_cal = std::min<int>(
      max_calibration_images, static_cast<int>(calibration.images.size()));
  for (int ci = 0; ci < num_cal; ++ci) {
    const auto& img = calibration.images[static_cast<std::size_t>(ci)];
    // Float activations in CHW.
    std::vector<float> act(img.pixels.begin(), img.pixels.end());
    Geometry g{3, sfc::data::Image::kSize, sfc::data::Image::kSize, false};
    for (std::size_t oi = 0; oi < qn.ops_.size(); ++oi) {
      const QuantOp& op = qn.ops_[oi];
      const Geometry gout = advance(g, op);
      std::vector<float> next;
      if (op.kind == QuantOp::Kind::kConv) {
        next.assign(static_cast<std::size_t>(gout.c) * gout.h * gout.w, 0.0f);
        for (int oc = 0; oc < gout.c; ++oc) {
          for (int oy = 0; oy < gout.h; ++oy) {
            for (int ox = 0; ox < gout.w; ++ox) {
              float acc = op.bias[static_cast<std::size_t>(oc)];
              for (int ic = 0; ic < op.in_channels; ++ic) {
                for (int ky = 0; ky < op.kernel; ++ky) {
                  const int iy = oy + ky - op.padding;
                  if (iy < 0 || iy >= g.h) continue;
                  for (int kx = 0; kx < op.kernel; ++kx) {
                    const int ix = ox + kx - op.padding;
                    if (ix < 0 || ix >= g.w) continue;
                    const float wq =
                        static_cast<float>(op.weight[static_cast<std::size_t>(
                            ((oc * op.in_channels + ic) * op.kernel + ky) *
                                op.kernel +
                            kx)]) *
                        op.w_scale;
                    acc += wq * act[static_cast<std::size_t>(
                                   (ic * g.h + iy) * g.w + ix)];
                  }
                }
              }
              if (op.relu && acc < 0.0f) acc = 0.0f;
              next[static_cast<std::size_t>((oc * gout.h + oy) * gout.w + ox)] =
                  acc;
            }
          }
        }
        act_max[oi] = std::max(act_max[oi],
                               *std::max_element(next.begin(), next.end()));
      } else if (op.kind == QuantOp::Kind::kDense) {
        next.assign(static_cast<std::size_t>(op.out_features), 0.0f);
        for (int o = 0; o < op.out_features; ++o) {
          float acc = op.bias[static_cast<std::size_t>(o)];
          for (int i = 0; i < op.in_features; ++i) {
            acc += static_cast<float>(
                       op.weight[static_cast<std::size_t>(o * op.in_features +
                                                          i)]) *
                   op.w_scale * act[static_cast<std::size_t>(i)];
          }
          if (op.relu && acc < 0.0f) acc = 0.0f;
          next[static_cast<std::size_t>(o)] = acc;
        }
        act_max[oi] = std::max(act_max[oi],
                               *std::max_element(next.begin(), next.end()));
      } else if (op.kind == QuantOp::Kind::kPool) {
        next.assign(static_cast<std::size_t>(gout.c) * gout.h * gout.w, 0.0f);
        for (int c = 0; c < g.c; ++c) {
          for (int oy = 0; oy < gout.h; ++oy) {
            for (int ox = 0; ox < gout.w; ++ox) {
              float best = -1e30f;
              for (int dy = 0; dy < op.pool_window; ++dy) {
                for (int dx = 0; dx < op.pool_window; ++dx) {
                  best = std::max(
                      best, act[static_cast<std::size_t>(
                                (c * g.h + oy * op.pool_window + dy) * g.w +
                                ox * op.pool_window + dx)]);
                }
              }
              next[static_cast<std::size_t>((c * gout.h + oy) * gout.w + ox)] =
                  best;
            }
          }
        }
      } else {  // flatten
        next = act;
      }
      act = std::move(next);
      g = gout;
    }
  }
  for (std::size_t oi = 0; oi < qn.ops_.size(); ++oi) {
    qn.ops_[oi].act_out_scale = act_max[oi] / act_levels;
  }
  return qn;
}

Tensor QuantizedNetwork::forward(const sfc::data::Image& img,
                                 DotEngine& engine) const {
  SFC_TRACE_SPAN("nn.forward");
  // uint8 activations with a single scale.
  const long act_levels = options_.activation_levels();
  std::vector<std::uint8_t> act(img.pixels.size());
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    act[i] = static_cast<std::uint8_t>(std::clamp(
        std::lround(img.pixels[i] * static_cast<float>(act_levels)), 0L,
        act_levels));
  }
  float a_scale = 1.0f / static_cast<float>(act_levels);
  Geometry g{input_channels_, input_size_, input_size_, false};

  std::vector<float> logits;
  std::vector<std::uint8_t> patch;

  for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
    const QuantOp& op = ops_[oi];
    // One span per layer, not per dot_batch call: a traced VGG image makes
    // thousands of batched calls.
    SFC_TRACE_SPAN(kLayerSpan[static_cast<int>(op.kind)]);
    engine.begin_layer(static_cast<int>(oi));
    const Geometry gout = advance(g, op);
    const bool last = oi + 1 == ops_.size();

    if (op.kind == QuantOp::Kind::kConv) {
      std::vector<std::uint8_t> next(
          static_cast<std::size_t>(gout.c) * gout.h * gout.w, 0);
      const int patch_len = op.in_channels * op.kernel * op.kernel;
      patch.assign(static_cast<std::size_t>(patch_len), 0);
      std::vector<std::int64_t> dots(static_cast<std::size_t>(gout.c));
      for (int oy = 0; oy < gout.h; ++oy) {
        for (int ox = 0; ox < gout.w; ++ox) {
          // Gather the (zero-padded) input patch once per pixel.
          std::size_t pi = 0;
          for (int ic = 0; ic < op.in_channels; ++ic) {
            for (int ky = 0; ky < op.kernel; ++ky) {
              const int iy = oy + ky - op.padding;
              for (int kx = 0; kx < op.kernel; ++kx, ++pi) {
                const int ix = ox + kx - op.padding;
                patch[pi] = (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w)
                                ? 0
                                : act[static_cast<std::size_t>(
                                      (ic * g.h + iy) * g.w + ix)];
              }
            }
          }
          // One batched call per pixel: every output channel reads the same
          // patch, so engines can evaluate the rows in parallel.
          engine.dot_batch(
              patch,
              std::span<const std::int8_t>(op.weight.data(), op.weight.size()),
              static_cast<std::size_t>(patch_len),
              static_cast<std::size_t>(gout.c), dots.data());
          for (int oc = 0; oc < gout.c; ++oc) {
            float y = static_cast<float>(dots[static_cast<std::size_t>(oc)]) *
                          a_scale * op.w_scale +
                      op.bias[static_cast<std::size_t>(oc)];
            if (op.relu && y < 0.0f) y = 0.0f;
            next[static_cast<std::size_t>((oc * gout.h + oy) * gout.w + ox)] =
                static_cast<std::uint8_t>(std::clamp(
                    std::lround(y / op.act_out_scale), 0L, act_levels));
          }
        }
      }
      act = std::move(next);
      a_scale = op.act_out_scale;
    } else if (op.kind == QuantOp::Kind::kDense) {
      std::vector<std::uint8_t> next(static_cast<std::size_t>(op.out_features),
                                     0);
      if (last) logits.assign(static_cast<std::size_t>(op.out_features), 0.0f);
      std::vector<std::int64_t> dots(static_cast<std::size_t>(op.out_features));
      engine.dot_batch(
          std::span<const std::uint8_t>(act.data(), act.size()),
          std::span<const std::int8_t>(op.weight.data(), op.weight.size()),
          static_cast<std::size_t>(op.in_features),
          static_cast<std::size_t>(op.out_features), dots.data());
      for (int o = 0; o < op.out_features; ++o) {
        float y = static_cast<float>(dots[static_cast<std::size_t>(o)]) *
                      a_scale * op.w_scale +
                  op.bias[static_cast<std::size_t>(o)];
        if (op.relu && y < 0.0f) y = 0.0f;
        if (last) {
          logits[static_cast<std::size_t>(o)] = y;
        } else {
          next[static_cast<std::size_t>(o)] = static_cast<std::uint8_t>(
              std::clamp(std::lround(y / op.act_out_scale), 0L, act_levels));
        }
      }
      act = std::move(next);
      a_scale = op.act_out_scale;
    } else if (op.kind == QuantOp::Kind::kPool) {
      std::vector<std::uint8_t> next(
          static_cast<std::size_t>(gout.c) * gout.h * gout.w, 0);
      for (int c = 0; c < g.c; ++c) {
        for (int oy = 0; oy < gout.h; ++oy) {
          for (int ox = 0; ox < gout.w; ++ox) {
            std::uint8_t best = 0;
            for (int dy = 0; dy < op.pool_window; ++dy) {
              for (int dx = 0; dx < op.pool_window; ++dx) {
                best = std::max(
                    best, act[static_cast<std::size_t>(
                              (c * g.h + oy * op.pool_window + dy) * g.w +
                              ox * op.pool_window + dx)]);
              }
            }
            next[static_cast<std::size_t>((c * gout.h + oy) * gout.w + ox)] =
                best;
          }
        }
      }
      act = std::move(next);
    }
    // Flatten: layout already matches; nothing to do.
    g = gout;
  }

  Tensor out({static_cast<int>(logits.size())});
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i];
  return out;
}

int QuantizedNetwork::predict(const sfc::data::Image& img,
                              DotEngine& engine) const {
  return argmax(forward(img, engine));
}

double QuantizedNetwork::evaluate(const sfc::data::Dataset& test,
                                  DotEngine& engine, int max_images) const {
  std::size_t n = test.images.size();
  if (max_images >= 0) n = std::min(n, static_cast<std::size_t>(max_images));
  if (n == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (predict(test.images[i], engine) == test.images[i].label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

std::int64_t QuantizedNetwork::macs_per_inference() const {
  Geometry g{input_channels_, input_size_, input_size_, false};
  std::int64_t macs = 0;
  for (const QuantOp& op : ops_) {
    const Geometry gout = advance(g, op);
    if (op.kind == QuantOp::Kind::kConv) {
      macs += static_cast<std::int64_t>(gout.c) * gout.h * gout.w *
              op.in_channels * op.kernel * op.kernel;
    } else if (op.kind == QuantOp::Kind::kDense) {
      macs += static_cast<std::int64_t>(op.in_features) * op.out_features;
    }
    g = gout;
  }
  return macs;
}

}  // namespace sfc::nn
