// CSV export of experiment timelines, for re-plotting figures.
//
// Every bench prints its table to stdout; setting TOPFULL_CSV_DIR
// additionally dumps the full per-second timeline of each run as CSV
// (one row per second: per-API offered/goodput/latency and per-service
// utilisation).
#pragma once

#include <string>

#include "sim/app.hpp"

namespace topfull::exp {

/// Writes the app's metric timeline to `path`. Returns false on I/O
/// failure.
bool WriteTimelineCsv(const sim::Application& app, const std::string& path);

/// If the TOPFULL_CSV_DIR environment variable is set, writes the timeline
/// to "$TOPFULL_CSV_DIR/<name>.csv" and reports the location on stderr.
void MaybeExportTimeline(const sim::Application& app, const std::string& name);

}  // namespace topfull::exp
