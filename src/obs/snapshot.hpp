// Immutable metric snapshots: the read side of the live telemetry plane.
//
// The registry (metrics_registry.hpp) is deliberately not thread-safe: the
// simulation updates it with plain writes on its own thread. To observe it
// live without perturbing that hot path, the *owning* thread captures an
// immutable MetricsSnapshot at a quiescent point (between RunUntil chunks)
// and publishes it through a SnapshotBoard — a
// hazard-style slot ring (see the class comment). Readers (the HTTP
// observability server) pin a slot, copy one shared_ptr and then walk a
// structure nobody mutates, so scrapes never take a lock and never touch
// live registry storage.
//
// Memory-ordering contract (DESIGN.md §12):
//   writer: build snapshot (plain writes) → Publish (slot fill, then
//           seq_cst flip of the current index)
//   reader: Read (seq_cst pin + re-validate) → walk immutable snapshot
// The copied shared_ptr keeps a scraped snapshot alive across later
// publishes, so there is no reclamation race; old snapshots free when the
// last reader drops them.
//
// PromTextFromSnapshot renders the exact same text-exposition bytes as the
// offline Prometheus dump — WritePrometheusText is implemented on top of
// it — so a live `/metrics` scrape at end of run equals the `.metrics.prom`
// artifact byte for byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"

namespace topfull::obs {

/// Run-level progress and engine counters captured at publish time
/// (rendered by `/runs`, not by `/metrics`).
struct RunState {
  std::string label;
  bool finished = false;
  double sim_time_s = 0.0;
  double duration_s = 0.0;
  std::uint64_t slo_events = 0;
  /// SLO start/onset events without a matching end/clear yet.
  std::uint64_t active_slo_events = 0;
  std::vector<std::string> active_slo_subjects;
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t pending_events = 0;
};

/// Immutable flattened copy of one or more registries. Families are sorted
/// by name, cells by canonical label key — the same deterministic order the
/// registry itself iterates in.
struct MetricsSnapshot {
  struct Cell {
    Labels labels;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    std::optional<Histogram> histogram;  // kHistogram families only
  };

  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Cell> cells;
  };

  std::uint64_t version = 0;
  RunState run;
  std::vector<Family> families;

  const Family* FindFamily(const std::string& name) const;
  const Cell* FindCell(const std::string& name, const Labels& labels) const;
};

/// Accumulates cells from registries and ad-hoc values, then freezes them
/// into a sorted immutable snapshot. Single-use: Finish() moves the state
/// out. Adding the same (family, label set) twice overwrites the cell.
class SnapshotBuilder {
 public:
  /// Copies every family/cell of `registry`.
  void AddRegistry(const MetricsRegistry& registry);

  void AddCounter(const std::string& name, const std::string& help,
                  Labels labels, std::uint64_t value);
  void AddGauge(const std::string& name, const std::string& help,
                Labels labels, double value);
  void AddHistogram(const std::string& name, const std::string& help,
                    Labels labels, const Histogram& histogram);

  std::shared_ptr<const MetricsSnapshot> Finish(RunState run = {},
                                                std::uint64_t version = 0);

 private:
  struct FamilyBuild {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::map<std::string, MetricsSnapshot::Cell> cells;  // by canonical key
  };

  MetricsSnapshot::Cell* GetCell(const std::string& name,
                                 const std::string& help, MetricType type,
                                 Labels labels);

  std::map<std::string, FamilyBuild> families_;
};

/// Publish/read exchange between the snapshot producer (the sim-owning
/// thread — exactly one publisher) and any number of reader threads.
/// Starts holding an empty snapshot so readers never observe null.
///
/// Not std::atomic<shared_ptr>: libstdc++'s _Sp_atomic releases its
/// internal spinlock from load() with a relaxed RMW, so there is no
/// release edge from a reader's pointer read to the next store's pointer
/// write and TSan (correctly, per the model) reports the pair as a data
/// race. Instead the board is a small hazard-style slot ring: Publish()
/// fills a slot no reader has pinned and flips `current_`; Read() pins
/// slots_[current_] with a reader count, re-validates `current_`, and
/// copies the shared_ptr out. The seq_cst handshake (reader: pin then
/// re-read current_; publisher: flip current_ then scan reader counts)
/// guarantees the publisher never reuses a slot a reader is copying from:
/// in the seq_cst total order either the publisher's scan sees the pin, or
/// the reader's re-validation sees the flip and backs off. Readers never
/// block each other or the publisher.
class SnapshotBoard {
 public:
  SnapshotBoard();
  SnapshotBoard(const SnapshotBoard&) = delete;
  SnapshotBoard& operator=(const SnapshotBoard&) = delete;

  /// Publisher side; single-threaded by contract.
  void Publish(std::shared_ptr<const MetricsSnapshot> snapshot);
  std::shared_ptr<const MetricsSnapshot> Read() const;

 private:
  struct Slot {
    std::atomic<int> readers{0};
    std::shared_ptr<const MetricsSnapshot> snapshot;
  };
  // current_ + spare slots for in-flight publishes while stragglers copy.
  static constexpr std::uint32_t kSlots = 4;

  mutable Slot slots_[kSlots];
  std::atomic<std::uint32_t> current_{0};
};

/// Renders a snapshot in Prometheus text exposition format: families in
/// name order, a # HELP/# TYPE pair per family, histogram families as
/// cumulative `_bucket{le=...}` series (empty buckets elided) plus `_sum`
/// and `_count`.
std::string PromTextFromSnapshot(const MetricsSnapshot& snapshot);

/// Registry convenience wrapper around PromTextFromSnapshot (the offline
/// export path and tests use this).
std::string PromTextFromRegistry(const MetricsRegistry& registry);

/// `/snapshot.json`: every family/cell as a JSON document (histograms as
/// count/sum/min/max/mean/p50/p90/p99 summaries).
std::string SnapshotJson(const MetricsSnapshot& snapshot);

/// `/runs`: run-state JSON (label, progress, SLO events, engine counters).
std::string RunStateJson(const MetricsSnapshot& snapshot);

/// Prometheus label-value escaping (backslash, double-quote, newline).
std::string PromEscapeLabel(const std::string& s);
/// Prometheus HELP-text escaping (backslash, newline).
std::string PromEscapeHelp(const std::string& s);
/// JSON string escaping (exposed for tests).
std::string JsonEscape(const std::string& s);

}  // namespace topfull::obs
