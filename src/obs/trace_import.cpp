#include "obs/trace_import.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "kernels/kernels.hpp"

namespace tiledqr::obs {

namespace {

// The importer ignores what it does not understand: a field that is absent or
// of another type takes its default. A number that is present must fit.
const json::Value* typed(const json::Value* obj, const char* key, json::Type type) {
  const json::Value* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->type() == type ? v : nullptr;
}

template <class I>
I int_field(const json::Value* obj, const char* key, I fallback) {
  const json::Value* v = typed(obj, key, json::Type::Number);
  return v != nullptr ? v->as_int<I>(key) : fallback;
}

std::string_view string_field(const json::Value* obj, const char* key) {
  const json::Value* v = typed(obj, key, json::Type::String);
  return v != nullptr ? std::string_view(v->as_string(key)) : std::string_view();
}

// Microseconds to nanoseconds, bounded to +-2^62 ns (about 146 years) so that
// start + duration cannot overflow.
std::int64_t ns_field(const json::Value& ev, const char* key) {
  const json::Value* v = typed(&ev, key, json::Type::Number);
  const double ns = v != nullptr ? std::round(v->as_number(key) * 1000.0) : 0.0;
  TILEDQR_CHECK(std::abs(ns) <= 0x1p62, std::string("trace import: \"") + key + "\" too large");
  return std::int64_t(ns);
}

std::uint8_t kind_from_name(std::string_view name) {
  for (int k = 0; k < kernels::kNumKernelKinds; ++k) {
    if (name == kernels::kernel_name(static_cast<kernels::KernelKind>(k))) {
      return std::uint8_t(k);
    }
  }
  return TraceEvent::kNonKernel;
}

}  // namespace

std::vector<TrackSnapshot> import_chrome_json(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str(), "trace import");
  const json::Value* events = doc.find("traceEvents");
  TILEDQR_CHECK(events != nullptr && events->type() == json::Type::Array,
                "trace import: no traceEvents array in document");

  std::map<int, TrackSnapshot> tracks;
  auto track = [&](int tid) -> TrackSnapshot& {
    auto it = tracks.find(tid);
    if (it == tracks.end()) {
      it = tracks.emplace(tid, TrackSnapshot{}).first;
      it->second.tid = tid;
      it->second.name = "thread" + std::to_string(tid);
    }
    return it->second;
  };

  for (const json::Value& ev : events->as_array("traceEvents")) {
    const std::string_view ph = string_field(&ev, "ph");
    if (ph.empty() || ev.find("tid") == nullptr) continue;
    const int t = int_field(&ev, "tid", 0);
    const json::Value* args = ev.find("args");

    if (ph == "M") {
      const std::string_view n = string_field(args, "name");
      if (string_field(&ev, "name") == "thread_name" && !n.empty()) track(t).name = n;
      continue;
    }
    if (ph != "X") continue;

    TraceEvent e;
    e.start_ns = ns_field(ev, "ts");
    e.end_ns = e.start_ns + ns_field(ev, "dur");
    e.kind = kind_from_name(string_field(&ev, "name"));
    e.i = int_field<std::int32_t>(args, "i", -1);
    e.piv = int_field<std::int32_t>(args, "piv", -1);
    e.k = int_field<std::int32_t>(args, "k", -1);
    e.j = int_field<std::int32_t>(args, "j", -1);
    e.task = int_field<std::int32_t>(args, "task", -1);
    e.submission = int_field<std::uint32_t>(args, "sub", 0);
    e.component = int_field<std::int32_t>(args, "component", 0);
    if (int_field(args, "stolen", 0) != 0) e.flags |= TraceEvent::kFlagStolen;
    track(t).events.push_back(e);
  }

  std::vector<TrackSnapshot> out;
  out.reserve(tracks.size());
  for (auto& [t, snap] : tracks) out.push_back(std::move(snap));
  return out;
}

std::vector<TrackSnapshot> import_chrome_json(const std::string& path) {
  std::ifstream f(path);
  TILEDQR_CHECK(f.good(), "cannot open trace file: " + path);
  return import_chrome_json(static_cast<std::istream&>(f));
}

}  // namespace tiledqr::obs
