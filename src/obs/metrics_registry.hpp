// Streaming metrics registry: named counters, gauges and histograms that
// simulation, controller, fault and experiment code update in-line as the
// DES advances.
//
// One registry per simulation (Application owns one): updates are plain
// non-atomic writes on the simulation's own thread, so parallel sweeps
// (one Application per worker) never share a registry and the values are
// bit-identical for any TOPFULL_THREADS. Metric handles returned by the
// Get* calls are stable for the registry's lifetime — call sites resolve
// the name once and keep the pointer, leaving a single add on the hot
// path. Families are keyed by Prometheus-style name + label set; iteration
// is sorted by name then labels, so every export is deterministic. The
// whole surface is queryable at any Snapshot boundary mid-run, not just at
// end of run.
//
// Naming scheme (DESIGN.md §9): topfull_<subsystem>_<noun>[_<unit>][_total]
// with snake_case names, `_total` for counters, explicit units (_seconds,
// _ms, _rps) for gauges/histograms, and api="..."/service="..." labels.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace topfull::obs {

/// Monotonic event count. Not thread-safe by design (see file comment).
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Label pairs, e.g. {{"api", "getcart"}}. Kept in the order given; use a
/// consistent order per family (exports render them verbatim).
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  struct Cell {
    Labels labels;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;  // kHistogram families only
  };

  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    /// Cells keyed by the canonical rendering of their label set; std::map
    /// iteration gives the deterministic export order.
    std::map<std::string, std::unique_ptr<Cell>> cells;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the family + cell. The returned pointer stays valid
  /// for the registry's lifetime. `help` is retained from the first call
  /// for a family; the family's type must not change between calls.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          Labels labels = {}, HistogramConfig config = {});

  /// Families sorted by name (map order). Cells within a family are sorted
  /// by their canonical label key.
  const std::map<std::string, Family>& families() const { return families_; }

  /// Lookup without creating; nullptr when the family/cell is absent.
  const Cell* Find(const std::string& name, const Labels& labels = {}) const;

  std::size_t FamilyCount() const { return families_.size(); }

  /// Cells created so far. Readers that cache cell pointers (the TSDB
  /// RegistryFeed) re-plan only when this changes.
  std::uint64_t cells_created() const { return cells_created_; }

  /// Canonical cell key for a label set ("k1=v1,k2=v2"; empty for no labels).
  static std::string LabelKey(const Labels& labels);

 private:
  Cell* GetCell(const std::string& name, const std::string& help,
                MetricType type, Labels labels);

  std::map<std::string, Family> families_;
  std::uint64_t cells_created_ = 0;
};

}  // namespace topfull::obs
