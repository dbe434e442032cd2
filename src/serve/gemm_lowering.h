// The serving lowering shared by the single-chip ModelPlan and the cluster
// ShardPlan (cluster/shard_plan.h): the k-split GEMM, the bias+ReLU /
// classifier head, and the host side of a batch (input packing, logits
// unpacking, butterfly spec validation).
//
// AddKSplitGemm lowers a feature-major out = W * x (W is m x k, packed
// block-major in mb x kc blocks) as AmpGemm partial products plus a
// ReduceAdd stage. The weight blocks never move: each vertex runs on the
// tile its block lives on, so only the activation chunk crosses the
// exchange every batch. The k-chunk bound keeps any single vertex from
// dragging a whole activation column onto its tile -- the difference
// between a dense replica fitting on ~40 tiles and not fitting at all.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ipusim/engine.h"
#include "ipusim/graph.h"
#include "ipusim/program.h"
#include "linalg/matrix.h"
#include "nn/export.h"
#include "util/error.h"

namespace repro::serve {

// Weight-upload handle of one lowered GEMM: the packed block-major weight
// tensor plus its packing geometry (m x k split into gm x gk blocks of
// mb x kc).
struct KSplitGemm {
  ipu::Tensor w;
  std::size_t m = 0, k = 0, mb = 0, kc = 0, gm = 0, gk = 0;
};

// Largest kc <= 256 dividing k (so every edge is an exact row range).
std::size_t PickKChunk(std::size_t k);

// Appends the GEMM's compute sets to `seq` and returns the weight handle.
// Requires x.rows >= k, x.cols == batch, out.rows == ceil(m/16)*16,
// out.cols == batch; `accumulate` (out += W x) needs a single k-chunk.
KSplitGemm AddKSplitGemm(ipu::Graph& g, ipu::Program& seq,
                         const std::string& name, const ipu::Tensor& x,
                         const ipu::Tensor& out, std::size_t m, std::size_t k,
                         bool accumulate, std::size_t batch);

// Packs a row-major m x k weight matrix into the block-major device layout
// of `gw` (zero-padded to the block grid).
std::vector<float> PackGemmBlocks(const KSplitGemm& gw, const float* w);

// Device tensors of the serving head.
struct BiasReluHead {
  ipu::Tensor hidden_bias;  // h.rows
  ipu::Tensor logits;       // Pad16(classes) x batch
  KSplitGemm cls_w;
  ipu::Tensor cls_bias;     // Pad16(classes)
};

// Appends the serving head over the hidden activation h (hidden x batch):
// h = relu(h + bias) in place, one BiasRelu vertex per row chunk (compute
// set "<prefix>bias_relu"); logits = Wc h, the k-split GEMM "<prefix>cls";
// logits += bc, one BiasRelu vertex (compute set "<prefix>cls_bias").
BiasReluHead AddBiasReluHead(ipu::Graph& g, ipu::Program& seq,
                             const ipu::Tensor& h, std::size_t classes,
                             std::size_t batch, const std::string& prefix);

// Writes the head's weights: `hidden_bias` (h.rows), the row-major
// classes x h.rows `classifier`, and `classifier_bias` zero-padded to the
// device rows (empty = all zero).
void WriteHeadWeights(ipu::Engine& engine, const BiasReluHead& head,
                      std::span<const float> hidden_bias,
                      const float* classifier,
                      std::span<const float> classifier_bias);

// The device image of one micro-batch of 1..batch rows of spec.input
// features: feature-major (input x batch), butterfly input permutation
// applied, unused batch columns zero.
std::vector<float> PackInputs(const nn::ForwardSpec& spec,
                              const Matrix& inputs, std::size_t batch);

// Reads `rows` batch columns of a feature-major classes x batch logits
// buffer back into a rows x classes matrix.
Matrix UnpackLogits(std::span<const float> logits, std::size_t rows,
                    std::size_t classes, std::size_t batch);

// InvalidArgument unless a butterfly spec's butterfly_perm is empty or a
// permutation of [0, input) and it holds log2(hidden) factors of
// 2 * hidden floats each; the plans index both without further checks.
// Specs of other methods pass.
Status CheckButterflySpec(const nn::ForwardSpec& spec);

}  // namespace repro::serve
