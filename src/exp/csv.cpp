#include "exp/csv.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "obs/text_buffer.hpp"

namespace topfull::exp {

bool WriteTimelineCsv(const sim::Application& app, const std::string& path) {
  obs::TextBuffer out(path);
  if (!out.ok()) return false;
  out << "t_s";
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    const std::string& name = app.api(a).name();
    out << ",offered_" << name << ",admitted_" << name << ",good_" << name
        << ",p95_ms_" << name;
  }
  for (int s = 0; s < app.NumServices(); ++s) {
    out << ",util_" << app.service(s).name();
  }
  out << "\n";
  // Doubles keep the iostream default rendering the file has always had:
  // %g with six significant digits.
  constexpr int kDigits = 6;
  for (const auto& snap : app.metrics().Timeline()) {
    out.Num(snap.t_end_s, kDigits);
    for (const auto& api : snap.apis) {
      out << ",";
      out.U64(api.offered) << ",";
      out.U64(api.admitted) << ",";
      out.U64(api.good) << ",";
      out.Num(api.latency_p95_ms, kDigits);
    }
    for (const auto& svc : snap.services) {
      out << ",";
      out.Num(svc.cpu_utilization, kDigits);
    }
    out << "\n";
  }
  return out.Close();
}

void MaybeExportTimeline(const sim::Application& app, const std::string& name) {
  const char* dir = std::getenv("TOPFULL_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "[csv] cannot create %s: %s\n", dir,
                 ec.message().c_str());
    return;
  }
  const std::string path = std::string(dir) + "/" + name + ".csv";
  errno = 0;
  if (WriteTimelineCsv(app, path)) {
    std::fprintf(stderr, "[csv] wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[csv] FAILED to write %s: %s\n", path.c_str(),
                 errno != 0 ? std::strerror(errno) : "write error");
  }
}

}  // namespace topfull::exp
