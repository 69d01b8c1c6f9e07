#include "rl/policy.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace topfull::rl {
namespace {

std::vector<int> NetSizes(const PolicyConfig& config) {
  std::vector<int> sizes;
  sizes.push_back(config.obs_dim);
  for (const int h : config.hidden) sizes.push_back(h);
  sizes.push_back(1);
  return sizes;
}

constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)

}  // namespace

GaussianPolicy::GaussianPolicy(PolicyConfig config, Rng& rng)
    : config_(std::move(config)),
      mean_net_(NetSizes(config_), rng),
      value_net_(NetSizes(config_), rng),
      log_std_(config_.init_log_std) {}

GaussianPolicy::Eval GaussianPolicy::Evaluate(const std::vector<double>& obs) const {
  Eval eval;
  const std::vector<double> out = mean_net_.Forward(obs, &eval.cache);
  eval.raw_out = out[0];
  const double center = 0.5 * (config_.action_low + config_.action_high);
  const double half = 0.5 * (config_.action_high - config_.action_low);
  eval.mean = center + half * std::tanh(eval.raw_out);
  eval.log_std = log_std_;
  return eval;
}

double GaussianPolicy::MeanAction(const std::vector<double>& obs) const {
  return Evaluate(obs).mean;
}

double GaussianPolicy::SampleAction(const std::vector<double>& obs, Rng& rng,
                                    double* raw) const {
  const Eval eval = Evaluate(obs);
  const double std = std::exp(eval.log_std);
  const double sample = rng.Normal(eval.mean, std);
  if (raw != nullptr) *raw = sample;
  return std::clamp(sample, config_.action_low, config_.action_high);
}

double GaussianPolicy::LogProb(double a, double mean, double log_std) {
  const double std = std::exp(log_std);
  const double z = (a - mean) / std;
  return -0.5 * z * z - log_std - kHalfLog2Pi;
}

void GaussianPolicy::Accumulate(const Eval& eval, double d_mean, double d_log_std) {
  // mean = center + half * tanh(raw_out) => dmean/draw = half * (1 - tanh^2).
  const double half = 0.5 * (config_.action_high - config_.action_low);
  const double t = std::tanh(eval.raw_out);
  const double d_raw = d_mean * half * (1.0 - t * t);
  mean_net_.Backward(eval.cache, {d_raw});
  g_log_std_ += d_log_std;
}

double GaussianPolicy::Value(const std::vector<double>& obs, Mlp::Cache* cache) const {
  return value_net_.Forward(obs, cache)[0];
}

void GaussianPolicy::AccumulateValue(const Mlp::Cache& cache, double d_value) {
  value_net_.Backward(cache, {d_value});
}

void GaussianPolicy::ZeroGrad() {
  mean_net_.ZeroGrad();
  value_net_.ZeroGrad();
  g_log_std_ = 0.0;
}

std::size_t GaussianPolicy::ParamCount() const {
  return mean_net_.ParamCount() + 1 + value_net_.ParamCount();
}

void GaussianPolicy::CopyParamsTo(std::vector<double>& out) const {
  std::vector<double> tmp;
  mean_net_.CopyParamsTo(out);
  out.push_back(log_std_);
  value_net_.CopyParamsTo(tmp);
  out.insert(out.end(), tmp.begin(), tmp.end());
}

void GaussianPolicy::SetParams(const std::vector<double>& params) {
  assert(params.size() == ParamCount());
  const std::size_t m = mean_net_.ParamCount();
  std::vector<double> mean_params(params.begin(), params.begin() + m);
  mean_net_.SetParams(mean_params);
  log_std_ = params[m];
  std::vector<double> value_params(params.begin() + m + 1, params.end());
  value_net_.SetParams(value_params);
}

void GaussianPolicy::CopyGradsTo(std::vector<double>& out) const {
  std::vector<double> tmp;
  mean_net_.CopyGradsTo(out);
  out.push_back(g_log_std_);
  value_net_.CopyGradsTo(tmp);
  out.insert(out.end(), tmp.begin(), tmp.end());
}

void GaussianPolicy::Save(std::ostream& os) const {
  os << "topfull-policy-v1\n";
  os << config_.obs_dim << ' ' << config_.hidden.size();
  for (const int h : config_.hidden) os << ' ' << h;
  os << '\n';
  os.precision(17);  // enough digits for every double to read back exactly
  os << config_.action_low << ' ' << config_.action_high << '\n';
  std::vector<double> params;
  CopyParamsTo(params);
  os << params.size() << '\n';
  for (const double p : params) os << p << '\n';
}

namespace {

constexpr std::size_t kReadBufferBytes = 64 * 1024;

// Reads whitespace-separated tokens through one fixed buffer that `fill`
// (std::size_t(char* dst, std::size_t max)) tops up; a token cut by the end
// of the buffer is moved to its front before the next fill. The buffer is a
// heap block below glibc's mmap threshold, which the run's later
// allocations reuse; on the stack its pages would stay resident and add to
// the run's peak RSS.
template <typename Fill>
class TokenReader {
 public:
  explicit TokenReader(Fill fill) : fill_(fill) {}

  /// The next token; false at end of input or for a token that does not
  /// fit the buffer. The view lives until the next call.
  bool Next(std::string_view* token) {
    for (;;) {
      while (pos_ < end_ && IsSpace(buf_[pos_])) ++pos_;
      std::size_t stop = pos_;
      while (stop < end_ && !IsSpace(buf_[stop])) ++stop;
      if (stop < end_ || (eof_ && stop > pos_)) {
        *token = std::string_view(buf_.get() + pos_, stop - pos_);
        pos_ = stop;
        return true;
      }
      if (eof_ || !Refill()) return false;
    }
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  bool Refill() {
    const std::size_t keep = end_ - pos_;
    if (keep == kReadBufferBytes) return false;
    std::memmove(buf_.get(), buf_.get() + pos_, keep);
    pos_ = 0;
    end_ = keep;
    const std::size_t got = fill_(buf_.get() + end_, kReadBufferBytes - end_);
    end_ += got;
    eof_ = got == 0;
    return true;
  }

  Fill fill_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
  std::unique_ptr<char[]> buf_{new char[kReadBufferBytes]};
};

// The next token as a T. The number must be the whole token and may carry
// one leading '+', which from_chars does not take ("+-1" still fails); a
// floating-point one must be finite.
template <typename T, typename Reader>
bool NextNumber(Reader& reader, T* out) {
  std::string_view token;
  if (!reader.Next(&token)) return false;
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') token.remove_prefix(1);
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

}  // namespace

template <typename Reader>
bool GaussianPolicy::Parse(Reader& reader) {
  std::string_view magic;
  if (!reader.Next(&magic) || magic != "topfull-policy-v1") return false;
  std::size_t obs_dim = 0;
  std::size_t num_hidden = 0;
  if (!NextNumber(reader, &obs_dim) || !NextNumber(reader, &num_hidden)) return false;
  if (obs_dim != static_cast<std::size_t>(config_.obs_dim) ||
      num_hidden != config_.hidden.size()) {
    return false;
  }
  for (const int h : config_.hidden) {
    std::size_t size = 0;
    if (!NextNumber(reader, &size) || size != static_cast<std::size_t>(h)) return false;
  }
  double low = 0.0, high = 0.0;
  if (!NextNumber(reader, &low) || !NextNumber(reader, &high)) return false;
  std::size_t n = 0;
  if (!NextNumber(reader, &n) || n != ParamCount()) return false;
  std::vector<double> params(n);
  for (auto& p : params) {
    if (!NextNumber(reader, &p)) return false;
  }
  config_.action_low = low;
  config_.action_high = high;
  SetParams(params);
  return true;
}

bool GaussianPolicy::Load(std::istream& is) {
  auto fill = [&is](char* dst, std::size_t max) {
    is.read(dst, static_cast<std::streamsize>(max));
    return static_cast<std::size_t>(is.gcount());
  };
  TokenReader<decltype(fill)> reader(fill);
  return Parse(reader);
}

bool GaussianPolicy::SaveFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  Save(out);
  return static_cast<bool>(out);
}

bool GaussianPolicy::LoadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  auto fill = [file](char* dst, std::size_t max) { return std::fread(dst, 1, max, file); };
  TokenReader<decltype(fill)> reader(fill);
  const bool ok = Parse(reader);
  std::fclose(file);
  return ok;
}

}  // namespace topfull::rl
