#include "obs/metrics_registry.hpp"

#include <cassert>

namespace topfull::obs {

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

std::string MetricsRegistry::LabelKey(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

MetricsRegistry::Cell* MetricsRegistry::GetCell(const std::string& name,
                                                const std::string& help,
                                                MetricType type, Labels labels) {
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.name = name;
    family.help = help;
    family.type = type;
  } else {
    assert(family.type == type && "metric family re-registered with another type");
  }
  auto [cell_it, cell_inserted] =
      family.cells.try_emplace(LabelKey(labels));
  if (cell_inserted) {
    cell_it->second = std::make_unique<Cell>();
    cell_it->second->labels = std::move(labels);
    ++cells_created_;
  }
  return cell_it->second.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help, Labels labels) {
  return &GetCell(name, help, MetricType::kCounter, std::move(labels))->counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const std::string& help,
                                 Labels labels) {
  return &GetCell(name, help, MetricType::kGauge, std::move(labels))->gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help, Labels labels,
                                         HistogramConfig config) {
  Cell* cell = GetCell(name, help, MetricType::kHistogram, std::move(labels));
  if (!cell->histogram) cell->histogram = std::make_unique<Histogram>(config);
  assert(cell->histogram->config() == config &&
         "histogram re-registered with another bucket layout");
  return cell->histogram.get();
}

const MetricsRegistry::Cell* MetricsRegistry::Find(const std::string& name,
                                                   const Labels& labels) const {
  const auto it = families_.find(name);
  if (it == families_.end()) return nullptr;
  const auto cell_it = it->second.cells.find(LabelKey(labels));
  return cell_it == it->second.cells.end() ? nullptr : cell_it->second.get();
}

}  // namespace topfull::obs
