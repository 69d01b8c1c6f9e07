// Diagonal-Gaussian policy + value function for the rate controller.
//
// Observation (paper §4.3): [goodput / rate limit, e2e percentile latency].
// Action: one continuous multiplicative step; the network emits a mean that
// is tanh-squashed into [action_low, action_high] (paper: [-0.5, 0.5]) with
// a state-independent learned log-std, RLlib-style. Sampled actions are
// clipped to the bounds when applied; log-probabilities use the raw sample.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rl/nn.hpp"

namespace topfull::rl {

struct PolicyConfig {
  int obs_dim = 2;
  std::vector<int> hidden = {64, 64};
  double action_low = -0.5;
  double action_high = 0.5;
  double init_log_std = -1.2;  // std ~0.3: enough exploration, resolves fine steps
};

class GaussianPolicy {
 public:
  GaussianPolicy(PolicyConfig config, Rng& rng);

  /// Forward pass artefacts needed for both inference and backprop.
  struct Eval {
    double mean = 0.0;     ///< squashed mean in [low, high]
    double raw_out = 0.0;  ///< pre-squash network output
    double log_std = 0.0;
    Mlp::Cache cache;
  };

  Eval Evaluate(const std::vector<double>& obs) const;

  /// Deterministic action (the squashed mean) — used at deployment time.
  double MeanAction(const std::vector<double>& obs) const;

  /// Samples an action; returns the clipped action and stores the raw
  /// (unclipped) sample in `raw` for log-prob bookkeeping.
  double SampleAction(const std::vector<double>& obs, Rng& rng, double* raw) const;

  /// Gaussian log-density of raw action `a` under (mean, std).
  static double LogProb(double a, double mean, double log_std);

  /// Accumulates gradients: dL/dmean and dL/dlog_std for the sample whose
  /// forward pass produced `eval`.
  void Accumulate(const Eval& eval, double d_mean, double d_log_std);

  /// Value-function forward / backward.
  double Value(const std::vector<double>& obs, Mlp::Cache* cache = nullptr) const;
  void AccumulateValue(const Mlp::Cache& cache, double d_value);

  // --- Optimisation plumbing ----------------------------------------------
  void ZeroGrad();
  /// Flattened parameters: [mean-net | log_std | value-net].
  std::size_t ParamCount() const;
  void CopyParamsTo(std::vector<double>& out) const;
  void SetParams(const std::vector<double>& params);
  void CopyGradsTo(std::vector<double>& out) const;

  // --- Checkpointing --------------------------------------------------------
  // A checkpoint is text, as Save writes it:
  //
  //   topfull-policy-v1
  //   <obs_dim> <num_hidden> <hidden_1> ... <hidden_num_hidden>
  //   <action_low> <action_high>
  //   <n>
  //   <param_1> ... <param_n>     (one per line)
  //
  // Save writes floats with 17 significant digits, so every double reads
  // back exactly. Tokens are separated by any run of whitespace (space,
  // tab, CR, LF, VT, FF); line breaks carry no meaning. Each number follows
  // common/parse.hpp's rule: counts are whole numbers (ParseWhole), bounds
  // and parameters correctly rounded finite ones (ParseFinite), so
  // `1.5abc`, `5e`, `inf`, `0x1p3`, `1e400` and `1e-400` are rejected. The
  // dimensions must match this policy's config and <n> must equal
  // ParamCount(). A token longer than the 64 KiB read buffer is rejected.
  // Anything after the last parameter is ignored.
  void Save(std::ostream& os) const;
  /// Loads a checkpoint; returns false on malformed input, leaving the
  /// policy unchanged. Reads `is` a buffer at a time, so it may consume
  /// bytes past the last parameter.
  bool Load(std::istream& is);
  bool SaveFile(const std::string& path) const;
  /// Load() from the file at `path`; false when it cannot be opened too.
  bool LoadFile(const std::string& path);

  const PolicyConfig& config() const { return config_; }
  double log_std() const { return log_std_; }

 private:
  /// The checkpoint grammar above, read from a TokenReader (policy.cpp).
  template <typename Reader>
  bool Parse(Reader& reader);

  PolicyConfig config_;
  Mlp mean_net_;
  Mlp value_net_;
  double log_std_;
  double g_log_std_ = 0.0;
};

}  // namespace topfull::rl
