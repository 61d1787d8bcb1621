// perfbench: the repository benchmark binary (driven by run.py; see
// METRICS.md).
//
//   perfbench --workload <tall_qr|wide_lq|stream_ls> --seed <n> --seconds <s>
//             [--trace 0|1] [--setup-only] [--spans <path>]
//
// Prints a configuration stamp line ("stamp {...}"), a metric table, and as
// its last line one JSON object {correct, attempted, failed, metrics}. With
// --setup-only it measures one cold set-up and prints {"setup_s", "attempted",
// "failed"} instead. Exits 1 when any check failed, 2 on a usage error or an
// exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tall_qr|wide_lq|stream_ls --seed N "
               "--seconds S [--trace 0|1] [--setup-only] [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--spans") {
      a.spans_path = value();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload != "tall_qr" && a.workload != "wide_lq" && a.workload != "stream_ls")
    usage("unknown workload");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception&) {  // std::stoull / std::stod on a malformed number
    usage("malformed numeric argument");
  }
  Outcome out;
  stamp_host(out, args);
  try {
    if (args.workload == "stream_ls")
      run_stream(args, out);
    else
      run_dense(args, args.workload == "wide_lq" ? DenseShape::Wide : DenseShape::Tall, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::string stamp = "{";
  for (size_t i = 0; i < out.stamp.size(); ++i)
    stamp += (i ? ", " : "") + json_string(out.stamp[i].first) + ": " +
             json_string(out.stamp[i].second);
  std::printf("stamp %s}\n", stamp.c_str());

  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g, \"attempted\": %ld, \"failed\": %ld}\n", out.setup_s,
                out.attempted, out.failed);
    return out.failed == 0 ? 0 : 1;
  }
  if (!args.trace) {
    out.report.add("setup_s", out.setup_s, "s");
    out.report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.report.add("ok_frac", double(out.attempted - out.failed) / double(out.attempted), "ratio");
  }
  out.report.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed,
              out.report.json().c_str());
  return out.failed == 0 ? 0 : 1;
}
