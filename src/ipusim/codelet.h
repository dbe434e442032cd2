// Codelets: the vertex programs that run on tiles.
//
// A codelet bundles real arithmetic (compute) with a cycle model (cycles)
// and a useful-FLOP count (flops). The engine executes compute so results
// are numerically real, and charges the cycle model so device time is
// architecturally plausible. Cycle constants are calibrated against the
// paper's measurements; each builtin documents its calibration.
//
// Two execution representations exist side by side:
//  * VertexArgs -- string-keyed, one vertex per call. The fallback path and
//    the conformance oracle for everything below.
//  * ResolvedArgs -- field names interned to integer slots at compile time
//    (specialize_kernels pass), spans packed contiguously in SoA tables, all
//    vertices of one (compute set, tile, codelet) group handed to a single
//    Codelet::batch_compute call. Batch kernels share their arithmetic cores
//    with the per-vertex compute functions, so the two paths are bitwise
//    identical by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ipusim/arch.h"
#include "ipusim/graph.h"
#include "util/error.h"

namespace repro::ipu {

// Resolved vertex context handed to compute/cycle functions. Field edges are
// resolved to spans into engine storage, in connection order.
class VertexArgs {
 public:
  // Unresolved placeholder so containers of args can be sized up front and
  // filled in parallel; any use before assignment fails loudly (see
  // requireResolved below) instead of dereferencing null pointers.
  VertexArgs() : arch_(nullptr), imms_(nullptr), state_(nullptr) {}
  VertexArgs(const IpuArch* arch, const std::map<std::string, double>* imms,
             const std::vector<float>* state)
      : arch_(arch), imms_(imms), state_(state) {}

  void addEdge(const std::string& field, std::span<float> data) {
    requireResolved();
    fields_[field].push_back(data);
    sizes_[field].push_back(data.size());
  }
  // Timing-only mode: record the edge size without backing storage. The
  // cycle/flops estimators only consult sizes; compute() must not run.
  void addEdgeSize(const std::string& field, std::size_t size) {
    requireResolved();
    sizes_[field].push_back(size);
  }

  std::size_t fan(const std::string& field) const {
    auto it = sizes_.find(field);
    return it == sizes_.end() ? 0 : it->second.size();
  }
  std::span<const float> in(const std::string& field, std::size_t i = 0) const {
    return edge(field, i);
  }
  std::span<float> out(const std::string& field, std::size_t i = 0) const {
    return edge(field, i);
  }
  // Total element count across all edges of a field.
  std::size_t totalElems(const std::string& field) const {
    std::size_t n = 0;
    auto it = sizes_.find(field);
    if (it != sizes_.end()) {
      for (auto s : it->second) n += s;
    }
    return n;
  }

  double imm(const std::string& name, double def = 0.0) const {
    requireResolved();
    auto it = imms_->find(name);
    return it == imms_->end() ? def : it->second;
  }
  std::span<const float> state() const {
    requireResolved();
    return {state_->data(), state_->size()};
  }
  const IpuArch& arch() const {
    requireResolved();
    return *arch_;
  }

 private:
  void requireResolved() const {
    REPRO_REQUIRE(arch_ != nullptr,
                  "VertexArgs used before assignment: default-constructed "
                  "placeholder was never bound to a vertex");
  }

  std::span<float> edge(const std::string& field, std::size_t i) const {
    auto it = fields_.find(field);
    REPRO_REQUIRE(it != fields_.end() && i < it->second.size(),
                  "vertex field '%s'[%zu] not connected", field.c_str(), i);
    return it->second[i];
  }

  const IpuArch* arch_;
  const std::map<std::string, double>* imms_;
  const std::vector<float>* state_;
  std::map<std::string, std::vector<std::span<float>>> fields_;
  std::map<std::string, std::vector<std::size_t>> sizes_;
};

// --- specialized kernel plan (specialize_kernels pass) ---------------------
//
// The compile-time product that replaces string-keyed per-vertex dispatch:
// field and immediate names are interned per codelet into sorted slot
// tables, and each (compute set, tile, codelet) group's edges/immediates are
// packed into SoA offset tables the engine resolves once per engine, not
// once per run. Serialized into the ipu::Executable wire format.

// Interning tables for one codelet: the sorted distinct field and immediate
// names observed across its vertices. Slot ids index these vectors.
struct KernelCodelet {
  std::string name;
  std::vector<std::string> fields;
  std::vector<std::string> imms;
};

// One fused host dispatch: every vertex of one codelet on one tile within
// one lowered compute set, in lowered execution order.
struct KernelGroup {
  ComputeSetId cs = 0;        // lowered compute set id
  std::uint32_t codelet = 0;  // index into KernelPlan::codelets
  std::size_t tile = 0;
  std::vector<VertexId> vertices;
  // Slot-major CSR over the group's edge views: for field slot s and group
  // vertex v, edges[edge_start[s*(nv+1)+v] .. edge_start[s*(nv+1)+v+1]) are
  // vertex v's connections of that field, in connection order. Slot rows are
  // contiguous: row s ends where row s+1 begins.
  std::vector<std::uint32_t> edge_start;
  std::vector<Tensor> edges;
  // Slot-major immediates: slot s of group vertex v lives at [s*nv + v];
  // imm_present flags whether the vertex actually set it (absent immediates
  // take the kernel's default at run time).
  std::vector<double> imm_values;
  std::vector<std::uint8_t> imm_present;
};

struct KernelPlan {
  bool enabled = false;
  std::vector<KernelCodelet> codelets;
  // Sorted by (cs, tile, codelet) so per-compute-set ranges are contiguous.
  std::vector<KernelGroup> groups;
  // Data-independent per-vertex costs, evaluated once at compile time (the
  // cycle/flops estimators only consult sizes/immediates/state/arch, never
  // span contents). Indexed by VertexId over all graph vertices; raw
  // IEEE-754 in the artifact, so bit-exact across save/load.
  std::vector<double> vertex_cycles;
  std::vector<double> vertex_flops;
};

// Resolved SoA view of one KernelGroup, handed to Codelet::batch_compute.
// Spans are resolved into engine storage (by the engine, once per engine);
// slot lookups happen once per dispatch, outside the vertex loop.
class ResolvedArgs {
 public:
  ResolvedArgs(const IpuArch* arch, const KernelCodelet* codelet,
               const KernelGroup* group, const std::span<float>* spans,
               const std::span<const float>* states)
      : arch_(arch),
        codelet_(codelet),
        group_(group),
        spans_(spans),
        states_(states),
        nv_(group->vertices.size()) {}

  std::size_t size() const { return nv_; }
  const IpuArch& arch() const { return *arch_; }

  // Interned slot of a field/immediate name; -1 when no vertex in the group
  // connects/sets it (fan() reports 0 and imm() returns the default).
  int fieldSlot(std::string_view name) const {
    return slotOf(codelet_->fields, name);
  }
  int immSlot(std::string_view name) const {
    return slotOf(codelet_->imms, name);
  }

  std::size_t fan(std::size_t v, int slot) const {
    if (slot < 0) return 0;
    const std::uint32_t* row = rowOf(slot);
    return row[v + 1] - row[v];
  }
  std::span<float> edge(std::size_t v, int slot, std::size_t i = 0) const {
    REPRO_REQUIRE(slot >= 0,
                  "batch kernel field slot not interned (not connected on any "
                  "vertex of this codelet)");
    const std::uint32_t* row = rowOf(slot);
    REPRO_REQUIRE(row[v] + i < row[v + 1],
                  "batch vertex field slot %d[%zu] not connected", slot, i);
    return spans_[row[v] + i];
  }
  // Total element count across all edges of a field, mirroring
  // VertexArgs::totalElems.
  std::size_t totalElems(std::size_t v, int slot) const {
    if (slot < 0) return 0;
    const std::uint32_t* row = rowOf(slot);
    std::size_t n = 0;
    for (std::uint32_t e = row[v]; e < row[v + 1]; ++e) n += spans_[e].size();
    return n;
  }

  double imm(std::size_t v, int slot, double def = 0.0) const {
    if (slot < 0) return def;
    const std::size_t idx = static_cast<std::size_t>(slot) * nv_ + v;
    return group_->imm_present[idx] ? group_->imm_values[idx] : def;
  }
  std::span<const float> state(std::size_t v) const { return states_[v]; }

 private:
  static int slotOf(const std::vector<std::string>& names,
                    std::string_view name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  const std::uint32_t* rowOf(int slot) const {
    return group_->edge_start.data() +
           static_cast<std::size_t>(slot) * (nv_ + 1);
  }

  const IpuArch* arch_;
  const KernelCodelet* codelet_;
  const KernelGroup* group_;
  const std::span<float>* spans_;          // aligned with group_->edges
  const std::span<const float>* states_;   // aligned with group_->vertices
  std::size_t nv_;
};

struct Codelet {
  std::string name;
  // Per-tile code footprint, charged once per tile that hosts the codelet.
  std::size_t code_bytes = 256;
  // Fixed per-vertex descriptor bytes (on top of edge pointers and baked
  // state, which the compiler adds separately).
  std::size_t base_state_bytes = 32;
  std::function<void(VertexArgs&)> compute;
  std::function<double(const VertexArgs&)> cycles;
  std::function<double(const VertexArgs&)> flops;
  // Optional fused dispatch: one call runs every vertex of a (compute set,
  // tile, codelet) group over ResolvedArgs' SoA tables. Must be
  // arithmetic-identical to per-vertex compute -- the generic path is the
  // conformance oracle (tests/test_kernels.cpp byte-compares them). Absent
  // => the engine falls back to per-vertex compute for this codelet.
  std::function<void(const ResolvedArgs&)> batch_compute;
};

// The arithmetic of the ScalarGemm, AmpGemm and BlockGemmAmp codelets:
// out(m x n) (+)= a(m x k) * b(k x n), all row-major, `out` overlapping
// neither input. Each output starts from zero (from its value when
// `accumulate`) and adds a(i,p) * b(p,j) in ascending p, skipping every p
// with a(i,p) == 0, so its bits are those of the plain ikj loop.
void GemmCore(std::size_t m, std::size_t k, std::size_t n, bool accumulate,
              std::span<const float> a, std::span<const float> b,
              std::span<float> out);

// The arithmetic of the Butterfly2x2 codelet: pair p of w.size() / 4 maps
// rows xt_p, xb_p (`batch` columns each) to yt_p = a xt_p + b xb_p and
// yb_p = c xt_p + d xb_p, with (a, b, c, d) = w[4p .. 4p+4). Each column
// reads both inputs before writing, so yt/yb may alias xt/xb (the in-place
// stage the lowering emits). Inline so the codelet's per-vertex calls, a
// few batch columns each, compile without a call.
inline void ButterflyCore(std::size_t batch, std::span<const float> w,
                          std::span<const float> xt,
                          std::span<const float> xb, std::span<float> yt,
                          std::span<float> yb) {
  const std::size_t pairs = w.size() / 4;
  REPRO_REQUIRE(xt.size() == pairs * batch && xb.size() == xt.size() &&
                    yt.size() == xt.size() && yb.size() == xt.size(),
                "Butterfly2x2 shape mismatch");
  for (std::size_t p = 0; p < pairs; ++p) {
    const float a = w[4 * p + 0], b = w[4 * p + 1];
    const float c = w[4 * p + 2], d = w[4 * p + 3];
    for (std::size_t j = 0; j < batch; ++j) {
      const float t = xt[p * batch + j];
      const float u = xb[p * batch + j];
      yt[p * batch + j] = a * t + b * u;
      yb[p * batch + j] = c * t + d * u;
    }
  }
}

// Global codelet registry; builtins are registered on first access.
class CodeletRegistry {
 public:
  static CodeletRegistry& Get();

  void Register(Codelet codelet);
  const Codelet& Lookup(const std::string& name) const;
  bool Has(const std::string& name) const;

 private:
  CodeletRegistry();
  std::map<std::string, Codelet> codelets_;
};

// Builtin codelet names.
namespace codelets {
inline constexpr const char* kScalarGemm = "ScalarGemm";
inline constexpr const char* kAmpGemm = "AmpGemm";
inline constexpr const char* kReduceAdd = "ReduceAdd";
inline constexpr const char* kScaledAdd = "ScaledAdd";
inline constexpr const char* kRelu = "Relu";
inline constexpr const char* kDiagMul = "DiagMul";
inline constexpr const char* kButterfly2x2 = "Butterfly2x2";
inline constexpr const char* kHadamard2 = "Hadamard2";
inline constexpr const char* kSparseRowsMac = "SparseRowsMac";
inline constexpr const char* kSparseCooMac = "SparseCooMac";
inline constexpr const char* kBlockGemmAmp = "BlockGemmAmp";
inline constexpr const char* kBiasRelu = "BiasRelu";
}  // namespace codelets

}  // namespace repro::ipu
