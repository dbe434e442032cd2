#include "serve/gemm_lowering.h"

#include <algorithm>

#include "ipusim/codelet.h"
#include "util/bitops.h"
#include "util/error.h"

namespace repro::serve {

std::size_t PickKChunk(std::size_t k) {
  constexpr std::size_t kMax = 256;
  if (k <= kMax) return k;
  for (std::size_t kc = kMax; kc >= 64; --kc) {
    if (k % kc == 0) return kc;
  }
  return k;  // awkward prime-ish k: single chunk
}

KSplitGemm AddKSplitGemm(ipu::Graph& g, ipu::Program& seq,
                         const std::string& name, const ipu::Tensor& x,
                         const ipu::Tensor& out, std::size_t m, std::size_t k,
                         bool accumulate, std::size_t batch) {
  using ipu::Program;
  using ipu::Tensor;
  const std::size_t B = batch;
  KSplitGemm gw;
  gw.m = m;
  gw.k = k;
  gw.mb = 16;
  gw.kc = PickKChunk(k);
  gw.gm = CeilDiv(m, gw.mb);
  gw.gk = k / gw.kc;
  REPRO_REQUIRE(gw.gk * gw.kc == k, "k-chunk %zu does not divide k=%zu",
                gw.kc, k);
  REPRO_REQUIRE(x.rows >= k && x.cols == B, "gemm '%s' input shape",
                name.c_str());
  REPRO_REQUIRE(out.rows == gw.gm * gw.mb && out.cols == B,
                "gemm '%s' output shape (want %zu padded rows)", name.c_str(),
                gw.gm * gw.mb);
  REPRO_REQUIRE(!accumulate || gw.gk == 1,
                "accumulating gemm must be single-chunk");

  gw.w = g.addVariable(name + "_w", gw.gm * gw.gk, gw.mb * gw.kc);
  g.mapLinearly(gw.w, gw.mb * gw.kc);
  Tensor partials;
  if (gw.gk > 1) {
    partials = g.addVariable(name + "_part", gw.gm * gw.gk, gw.mb * B);
  }
  ipu::ComputeSetId cs = g.addComputeSet(name + "_mm");
  for (std::size_t im = 0; im < gw.gm; ++im) {
    for (std::size_t ik = 0; ik < gw.gk; ++ik) {
      const std::size_t blk = im * gw.gk + ik;
      // The weight block never moves: the vertex runs where it lives, so
      // only the activation chunk crosses the exchange each batch.
      const std::size_t tile = g.tileOfElement(gw.w, blk * gw.mb * gw.kc);
      ipu::VertexId v = g.addVertex(cs, ipu::codelets::kAmpGemm, tile);
      g.connect(v, "a", gw.w.row(blk));
      g.connect(v, "b", x.rowRange(ik * gw.kc, gw.kc));
      if (gw.gk > 1) {
        g.setTileMapping(partials.row(blk), tile);
        g.connect(v, "out", partials.row(blk), true);
      } else {
        g.connect(v, "out", out.rowRange(im * gw.mb, gw.mb), true);
      }
      g.setInitialValue(v, "m", static_cast<double>(gw.mb));
      g.setInitialValue(v, "k", static_cast<double>(gw.kc));
      g.setInitialValue(v, "n", static_cast<double>(B));
      if (accumulate) g.setInitialValue(v, "accumulate", 1.0);
    }
  }
  seq.add(Program::Execute(cs));
  if (gw.gk > 1) {
    ipu::ComputeSetId red = g.addComputeSet(name + "_red");
    for (std::size_t im = 0; im < gw.gm; ++im) {
      const std::size_t tile = g.tileOfElement(out, im * gw.mb * B);
      ipu::VertexId v = g.addVertex(red, ipu::codelets::kReduceAdd, tile);
      for (std::size_t ik = 0; ik < gw.gk; ++ik) {
        g.connect(v, "partials", partials.row(im * gw.gk + ik));
      }
      g.connect(v, "out", out.rowRange(im * gw.mb, gw.mb), true);
    }
    seq.add(Program::Execute(red));
  }
  return gw;
}

std::vector<float> PackGemmBlocks(const KSplitGemm& gw, const float* w) {
  std::vector<float> packed(gw.gm * gw.gk * gw.mb * gw.kc, 0.0f);
  for (std::size_t im = 0; im < gw.gm; ++im) {
    for (std::size_t ik = 0; ik < gw.gk; ++ik) {
      float* blk = packed.data() + (im * gw.gk + ik) * gw.mb * gw.kc;
      for (std::size_t i = 0; i < gw.mb; ++i) {
        const std::size_t gi = im * gw.mb + i;
        if (gi >= gw.m) break;  // zero padding stays
        const float* src = w + gi * gw.k + ik * gw.kc;
        std::copy(src, src + gw.kc, blk + i * gw.kc);
      }
    }
  }
  return packed;
}

BiasReluHead AddBiasReluHead(ipu::Graph& g, ipu::Program& seq,
                             const ipu::Tensor& h, std::size_t classes,
                             std::size_t batch, const std::string& prefix) {
  using ipu::Program;
  const std::size_t B = batch;
  const std::size_t hidden = h.rows;
  BiasReluHead head;
  head.hidden_bias = g.addVariable(prefix + "hbias", hidden);
  g.mapLinearly(head.hidden_bias, 1);
  ipu::ComputeSetId cs_bias = g.addComputeSet(prefix + "bias_relu");
  const std::size_t rows_per_tile =
      std::max<std::size_t>(1, CeilDiv(hidden, g.arch().num_tiles));
  for (std::size_t r = 0; r < hidden; r += rows_per_tile) {
    const std::size_t count = std::min(rows_per_tile, hidden - r);
    const std::size_t tile = g.tileOfElement(h, r * B);
    ipu::VertexId v = g.addVertex(cs_bias, ipu::codelets::kBiasRelu, tile);
    g.connect(v, "bias", head.hidden_bias.slice(r, count));
    g.connect(v, "x", h.rowRange(r, count));
    g.connect(v, "y", h.rowRange(r, count), true);
    g.setInitialValue(v, "batch", static_cast<double>(B));
    g.setInitialValue(v, "relu", 1.0);
  }
  seq.add(Program::Execute(cs_bias));

  const std::size_t cp = Pad16(classes);
  head.logits = g.addVariable(prefix + "logits", cp, B);
  g.mapLinearly(head.logits, B);
  head.cls_w = AddKSplitGemm(g, seq, prefix + "cls", h, head.logits, classes,
                             hidden, /*accumulate=*/false, B);
  head.cls_bias = g.addVariable(prefix + "cbias", cp);
  g.mapLinearly(head.cls_bias, 1);
  ipu::ComputeSetId cs_cb = g.addComputeSet(prefix + "cls_bias");
  ipu::VertexId vb = g.addVertex(cs_cb, ipu::codelets::kBiasRelu,
                                 g.tileOfElement(head.logits, 0));
  g.connect(vb, "bias", head.cls_bias);
  g.connect(vb, "x", head.logits);
  g.connect(vb, "y", head.logits, true);
  g.setInitialValue(vb, "batch", static_cast<double>(B));
  g.setInitialValue(vb, "relu", 0.0);
  seq.add(Program::Execute(cs_cb));
  return head;
}

void WriteHeadWeights(ipu::Engine& engine, const BiasReluHead& head,
                      std::span<const float> hidden_bias,
                      const float* classifier,
                      std::span<const float> classifier_bias) {
  engine.writeTensor(head.hidden_bias, hidden_bias);
  engine.writeTensor(head.cls_w.w, PackGemmBlocks(head.cls_w, classifier));
  std::vector<float> cb(head.cls_bias.numel, 0.0f);
  std::copy(classifier_bias.begin(), classifier_bias.end(), cb.begin());
  engine.writeTensor(head.cls_bias, cb);
}

std::vector<float> PackInputs(const nn::ForwardSpec& spec,
                              const Matrix& inputs, std::size_t batch) {
  const std::size_t B = batch;
  const std::size_t rows = inputs.rows();
  REPRO_REQUIRE(rows >= 1 && rows <= B && inputs.cols() == spec.input,
                "batch shape %zux%zu vs plan (<=%zu x %zu)", rows,
                inputs.cols(), B, spec.input);
  const bool permute = spec.method == core::Method::kButterfly &&
                       !spec.butterfly_perm.empty();
  std::vector<float> xbuf(spec.input * B, 0.0f);
  for (std::size_t i = 0; i < spec.input; ++i) {
    const std::size_t src = permute ? spec.butterfly_perm[i] : i;
    for (std::size_t j = 0; j < rows; ++j) {
      xbuf[i * B + j] = inputs(j, src);
    }
  }
  return xbuf;
}

Matrix UnpackLogits(std::span<const float> logits, std::size_t rows,
                    std::size_t classes, std::size_t batch) {
  Matrix out(rows, classes);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t j = 0; j < rows; ++j) {
      out(j, c) = logits[c * batch + j];
    }
  }
  return out;
}

Status CheckButterflySpec(const nn::ForwardSpec& spec) {
  if (spec.method != core::Method::kButterfly) return Status::Ok();
  const std::vector<std::uint32_t>& perm = spec.butterfly_perm;
  if (!perm.empty()) {
    if (perm.size() != spec.input) {
      return Status::InvalidArgument(
          "butterfly_perm has " + std::to_string(perm.size()) +
          " entries for input width " + std::to_string(spec.input));
    }
    std::vector<bool> seen(spec.input, false);
    for (std::uint32_t p : perm) {
      if (p >= spec.input || seen[p]) {
        return Status::InvalidArgument(
            "butterfly_perm is not a permutation of [0, " +
            std::to_string(spec.input) + "): entry " + std::to_string(p));
      }
      seen[p] = true;
    }
  }
  if (spec.butterfly_factors.size() != Log2(spec.hidden)) {
    return Status::InvalidArgument(
        "butterfly spec has " + std::to_string(spec.butterfly_factors.size()) +
        " factors for hidden width " + std::to_string(spec.hidden));
  }
  for (const std::vector<float>& f : spec.butterfly_factors) {
    if (f.size() != 2 * spec.hidden) {
      return Status::InvalidArgument(
          "butterfly factor holds " + std::to_string(f.size()) +
          " floats, want 2 * hidden = " + std::to_string(2 * spec.hidden));
    }
  }
  return Status::Ok();
}

}  // namespace repro::serve
