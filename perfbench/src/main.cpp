// perfbench: one workload of the repository benchmark in one process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --tmp-dir DIR [--trace-out FILE] [--setup-only] [--smoke]
//
// Sets the workload up (timed: plan, config, pool start-up and the first,
// cold op), then runs ops in a closed loop for S seconds and prints one
// JSON line of metrics. --trace 1 times half the ops with spans, then runs
// the per-layer probes. perfbench/run.py drives it; see README.md there.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "runtime/audit.hpp"
#include "runtime/sharded.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool smoke = false;
  std::string tmp_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp-dir DIR [--trace-out FILE] [--setup-only] "
               "[--smoke]\n";
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size()) {
    usage("bad value '" + std::string(text) + "' for " + std::string(flag));
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--setup-only") { options.setup_only = true; continue; }
    if (flag == "--smoke") { options.smoke = true; continue; }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_number<std::uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = parse_number<double>(flag, value);
      if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      const int trace = parse_number<int>(flag, value);
      if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--tmp-dir") {
      options.tmp_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (options.tmp_dir.empty()) usage("--tmp-dir is required");
  return options;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  const auto result = std::to_chars(text, text + sizeof text, value);
  return std::string(text, result.ptr);
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void print_sheet(const Options& options, const Sheet& sheet) {
  std::string out = "{\"workload\": " + quoted(options.workload) +
                    ", \"correct\": " +
                    (sheet.failures.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(sheet.attempted) +
                    ", \"failed\": " + std::to_string(sheet.failures.size()) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < sheet.failures.size(); ++i) {
    out += (i ? ", " : "") + quoted(sheet.failures[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : sheet.metrics) {
    out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
           number(metric.value) + ", \"unit\": " + quoted(metric.unit) + "}";
    first = false;
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [name, value] : sheet.notes) {
    out += (first ? "" : ", ") + quoted(name) + ": " + number(value);
    first = false;
  }
  out += "}, \"build\": {\"compiler\": " + quoted(PERFBENCH_COMPILER) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"redund_simd\": " + quoted(PERFBENCH_SIMD) + "}}";
  std::cout << out << std::endl;
}

/// Runs `body` and returns its failure text. An exception is a failed
/// check too (a resume whose replay diverges from its journal throws, for
/// one), so it is counted and printed like any other, not fatal.
template <typename Body>
std::string guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception& error) {
    return std::string("exception: ") + error.what();
  }
}

OpResult run_guarded(const Workload& w, OpContext& context, std::size_t v,
                     Tracer& tracer, std::int64_t op) {
  OpResult result;
  result.failure = guarded([&] {
    result = run_op(w, context, v, tracer, op);
    return result.failure;
  });
  return result;
}

void report_failures(const Sheet& sheet) {
  for (const std::string& failure : sheet.failures) {
    std::cerr << "perfbench: FAILED " << failure << "\n";
  }
}

/// Ops needed for `tail_pct` to have at least ten ops beyond it.
std::int64_t min_ops_for(double tail_pct) {
  return static_cast<std::int64_t>(std::ceil(10.0 / (1.0 - tail_pct / 100.0)));
}

int run(const Options& options) {
  Sheet sheet;
  Tracer off(false);
  Tracer tracer(options.trace);

  // Set-up: what a one-shot run of this workload pays before its first
  // result — plan, config, pool start-up and the first (cold) op.
  const auto setup_start = Clock::now();
  const Workload w = make_workload(options.workload, options.seed,
                                   options.smoke, options.tmp_dir);
  std::unique_ptr<parallel::ThreadPool> pool;
  if (w.kind == Kind::kSharded || w.kind == Kind::kMonteCarlo) {
    pool = std::make_unique<parallel::ThreadPool>(
        parallel::available_parallelism());
  }
  OpContext context;
  context.pool = pool.get();
  context.references.resize(w.variant_seeds.size());
  if (w.kind == Kind::kChaosResume) {
    // The cold op is the uninterrupted campaign: the reference every
    // resumed op must reproduce, which also fixes the kill point.
    sheet.check(w, 0, guarded([&] {
                  return prepare_reference(w, context, 0, tracer);
                }));
  } else {
    sheet.check(w, 0, run_guarded(w, context, 0, off, -1).failure);
  }
  const double setup_s = seconds_since(setup_start);
  if (options.setup_only) {
    std::cout << "{\"setup_s\": " << number(setup_s) << ", \"failed\": "
              << sheet.failures.size() << "}" << std::endl;
    return sheet.failures.empty() ? 0 : 1;
  }

  // References of the other variants, untimed. Steady and Monte Carlo ops
  // need none: their checks are against the first op or against Prop 3.
  if (w.kind == Kind::kChaosResume || w.kind == Kind::kSharded) {
    const std::size_t first = w.kind == Kind::kChaosResume ? 1 : 0;
    for (std::size_t v = first; v < w.variant_seeds.size(); ++v) {
      sheet.check(w, 0, guarded([&] {
                    return prepare_reference(w, context, v, tracer);
                  }));
    }
  }
  if (!sheet.failures.empty()) {
    // Without a sound reference no op can be checked: stop here.
    print_sheet(options, sheet);
    report_failures(sheet);
    return 1;
  }

  // Closed loop: one client, the next op starts when the previous ends.
  const std::int64_t min_ops = options.smoke ? 3 : min_ops_for(w.tail_pct);
  const double budget = options.seconds;
  const double hard_stop = budget * 3.0 + 30.0;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double items = 0.0;
  double busy_s = 0.0;
  const auto loop_start = Clock::now();
  for (std::int64_t op = 1;; ++op) {
    const double elapsed = seconds_since(loop_start);
    const auto done = static_cast<std::int64_t>(untraced_s.size());
    if (elapsed >= hard_stop) break;
    if (elapsed >= budget && done >= min_ops) break;
    // Traced runs alternate traced and untraced cycles through all the
    // variants, so the overhead estimate sees the same inputs and the same
    // host drift on both sides.
    const auto variants = static_cast<std::int64_t>(w.variant_seeds.size());
    const auto variant = static_cast<std::size_t>(op % variants);
    const bool traced = options.trace && (op / variants) % 2 == 1;
    const auto start = Clock::now();
    const OpResult result =
        run_guarded(w, context, variant, traced ? tracer : off, op);
    const double wall = seconds_since(start);
    sheet.check(w, op, result.failure);
    (traced ? traced_s : untraced_s).push_back(wall);
    items += result.items;
    busy_s += wall;
  }

  const double p50 = median(untraced_s);
  sheet.notes["ops"] = static_cast<double>(untraced_s.size());
  if (static_cast<std::int64_t>(untraced_s.size()) < min_ops) {
    // The hard stop ended the loop early: fewer than ten ops lie beyond
    // the tail percentile, so op_s_tail is not what it claims to be.
    sheet.notes["tail_short"] = 1.0;
    std::cerr << "perfbench: workload=" << w.name << " only "
              << untraced_s.size() << " ops, " << min_ops
              << " needed for op_s_tail at p" << w.tail_pct << "\n";
  }
  sheet.notes["tail_percentile"] = w.tail_pct;
  sheet.notes["plan_tasks"] = static_cast<double>(w.plan_request.task_count);
  if (!options.trace) {
    sheet.set("op_s_p50", p50, "s");
    sheet.set("op_s_tail", percentile(untraced_s, w.tail_pct), "s");
    sheet.set("items_per_s", busy_s > 0.0 ? items / busy_s : 0.0, "1/s");
    sheet.set("setup_s", setup_s, "s");
    sheet.set("peak_rss_mb", peak_rss_mib(), "MiB");
  } else {
    sheet.set("trace.overhead_frac",
              p50 > 0.0 ? median(traced_s) / p50 - 1.0 : 0.0, "ratio");
    const std::string failure = guarded([&] {
      run_probes(w, tracer, p50, sheet);
      return std::string();
    });
    sheet.check(w, -1, failure.empty() ? failure : "probes " + failure);
    if (!options.trace_out.empty()) tracer.write(options.trace_out);
  }
  print_sheet(options, sheet);
  report_failures(sheet);
  return sheet.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: workload=" << options.workload
              << " error: " << error.what() << "\n";
    return 1;
  }
}
