#include "repro.hpp"

#include <algorithm>
#include <functional>
#include <ostream>
#include <map>

#include "asmtool/assembler.hpp"
#include "core/custom.hpp"
#include "fpga/model.hpp"
#include "pipeline/pipeline.hpp"
#include "sarm/driver.hpp"
#include "support/text.hpp"
#include "workloads/workloads.hpp"

namespace cepic::repro {
namespace {

// Paper clock rates (§5.2).
constexpr double kSa110Mhz = 100.0;
constexpr double kEpicMhz = 41.8;
constexpr std::uint64_t kMaxCycles = 8'000'000'000ull;
const std::vector<std::string> kAll{"sha", "aes", "dct", "dijkstra"};

/// A design point: row label, customisation and codegen variant, or
/// the SA-110 baseline.
struct Point {
  std::string label;
  ProcessorConfig config;
  bool if_convert = true;
  bool sa110 = false;
};
const Point kSa110{"SA-110", {}, true, true};

struct Experiment;

/// A formatter's input: outcomes indexed [workload][point].
struct Results {
  const Experiment& experiment;
  std::vector<std::vector<pipeline::RunOutcome>> stats;
  bool ok = true;  ///< every output check passed
};

struct Experiment {
  std::string name;                    ///< command-line name
  std::string title;                   ///< the `=== ... ===` banner
  std::string subtitle;                ///< "(...)" line under it; expand()
  std::vector<std::string> workloads;  ///< "sha", "aes", "dct", "dijkstra"
  std::vector<Point> points;
  std::function<void(Results&, std::ostream&)> format;
};

/// One table line: `cells[0]` left-aligned to `widths[0]`, the rest
/// right-aligned to the following widths (the last one repeats). A cell
/// wider than its width gets a leading space so it cannot run into the
/// cell before it.
void row(std::ostream& out, const std::vector<std::string>& cells,
         const std::vector<std::size_t>& widths = {14, 12},
         const std::string& tail = "") {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t width = widths[std::min(i, widths.size() - 1)];
    if (i > 0 && cells[i].size() > width) out << ' ';
    out << (i == 0 ? pad_right(cells[i], width) : pad_left(cells[i], width));
  }
  out << tail << "\n";
}

std::string ratio(double num, double den, int digits) {
  return cat(fixed(num / den, digits), "x");
}
std::string mhz(double fmax) { return cat(fixed(fmax, 1), " MHz"); }

/// `text` with each {0}, {1}, {2} and {3} replaced by the SHA, AES, DCT
/// and Dijkstra size.
std::string expand(std::string text, const Sizes& s) {
  const int sizes[] = {s.sha_dim, s.aes_iters, s.dct_dim, s.dijkstra_nodes};
  for (auto at = text.find('{'); at != std::string::npos; at = text.find('{')) {
    text.replace(at, 3, cat(sizes[text[at + 1] - '0']));
  }
  return text;
}

/// T1 and A3: a row of cycles per point over the four workloads; then,
/// after `caption`, a `label` row of point `num`'s cycles over `den`'s.
std::function<void(Results&, std::ostream&)> cycle_table(
    std::string caption, std::string label, std::size_t num, std::size_t den,
    std::string footer) {
  return [=](Results& r, std::ostream& out) {
    const auto per_workload = [&](const std::string& head, const auto& cell) {
      std::vector<std::string> cells{head};
      for (std::size_t w = 0; w < r.stats.size(); ++w) cells.push_back(cell(w));
      row(out, cells);
    };
    row(out, {"", "SHA", "AES", "DCT", "Dijkstra"});
    for (std::size_t p = 0; p < r.experiment.points.size(); ++p) {
      per_workload(r.experiment.points[p].label,
                   [&](std::size_t w) { return cat(r.stats[w][p].cycles); });
    }
    out << caption;
    per_workload(label, [&](std::size_t w) {
      return ratio(r.stats[w][num].cycles, r.stats[w][den].cycles, 2);
    });
    out << footer;
  };
}

/// Points that set one ProcessorConfig field to each of `values`.
std::vector<Point> sweep(unsigned ProcessorConfig::*field,
                         std::vector<unsigned> values,
                         const std::function<std::string(unsigned)>& label) {
  std::vector<Point> points;
  for (unsigned v : values) {
    points.push_back({label(v), {}});
    points.back().config.*field = v;
  }
  return points;
}

/// EPIC at 1-4 ALUs, after the SA-110 baseline when asked for.
std::vector<Point> alu_points(bool with_sa110) {
  std::vector<Point> points = sweep(
      &ProcessorConfig::num_alus, {1, 2, 3, 4},
      [](unsigned n) { return cat(n, n == 1 ? " ALU" : " ALUs"); });
  if (with_sa110) points.insert(points.begin(), kSa110);
  return points;
}

std::vector<Point> depth_points() {
  return sweep(&ProcessorConfig::pipeline_stages, {2, 3, 4},
               [](unsigned n) { return cat(n); });
}

/// Figs 3-5: one workload, SA-110 at its clock against EPIC at 1-4 ALUs.
Experiment time_figure(std::string name, const char* what, std::string workload,
                       std::string subtitle, std::string shape) {
  const auto format = [shape](Results& r, std::ostream& out) {
    row(out, {"processor", "cycles", "time (ms)", "vs SA-110"});
    const double sa_ms = r.stats[0][0].cycles / (kSa110Mhz * 1e3);
    for (std::size_t p = 0; p < r.stats[0].size(); ++p) {
      const std::uint64_t cycles = r.stats[0][p].cycles;
      const double ms = p == 0 ? sa_ms : cycles / (kEpicMhz * 1e3);
      row(out, {r.experiment.points[p].label, cat(cycles), fixed(ms, 3),
                ratio(sa_ms, ms, 2)});
    }
    out << "\npaper shape: " << shape << "\n";
  };
  return {std::move(name),
          cat(what, " execution time (SA-110 @ 100 MHz, EPIC @ 41.8 MHz)"),
          std::move(subtitle), {std::move(workload)}, alu_points(true), format};
}

/// R1, §5.1 resource usage: the analytic Virtex-II model only.
void resource_usage(Results&, std::ostream& out) {
  using fpga::estimate;
  out << "--- slices vs number of ALUs   [paper: 4181 / 6779 / 9367 / "
         "~11955, ~2600 per ALU] ---\n";
  row(out, {"ALUs", "slices", "BRAMs", "MULT18", "fmax"}, {8, 10, 8, 8, 10});
  double prev = 0;
  for (const Point& p : alu_points(false)) {
    const auto e = estimate(p.config);
    row(out, {cat(p.config.num_alus), fixed(e.slices, 0), cat(e.block_rams),
              cat(e.block_mults), mhz(e.fmax_mhz)}, {8, 10, 8, 8, 10},
        prev > 0 ? cat("   (+", fixed(e.slices - prev, 0), ")") : "");
    prev = e.slices;
  }

  out << "\n--- register file size  [paper: SelectRAM; negligible slice / "
         "fmax effect] ---\n";
  row(out, {"GPRs", "slices", "BRAMs", "fmax"}, {8, 10, 8, 10});
  std::vector<Point> gprs = sweep(&ProcessorConfig::num_gprs, {16, 32, 64},
                                  [](unsigned n) { return cat(n); });
  gprs[0].config.num_preds = 16;
  for (const Point& p : gprs) {
    const auto e = estimate(p.config);
    row(out, {p.label, fixed(e.slices, 0), cat(e.block_rams), mhz(e.fmax_mhz)},
        {8, 10, 8, 10});
  }

  out << "\n--- datapath width (customisation parameter) ---\n";
  row(out, {"width", "slices", "fmax"}, {8, 10});
  for (const Point& p : sweep(&ProcessorConfig::datapath_width, {16, 32, 64},
                              [](unsigned n) { return cat(n, "b"); })) {
    const auto e = estimate(p.config);
    row(out, {p.label, fixed(e.slices, 0), mhz(e.fmax_mhz)}, {8, 10});
  }

  out << "\n--- ALU feature trims (paper §3.3: drop unused operations) ---\n";
  ProcessorConfig cfg;
  const auto trim = [&](const char* name) {
    row(out, {name, fixed(estimate(cfg).slices, 0)}, {22, 10}, " slices");
  };
  trim("full ALU set");
  cfg.alu.has_div = false;
  trim("no divider");
  cfg.alu.has_shift = cfg.alu.has_minmax = false;
  trim("add/logic only");

  const auto full = estimate(ProcessorConfig{});
  out << "\n--- default configuration breakdown ---\n"
      << full.report() << fpga::estimate_power(full).report()
      << "\n--- pipeline depth (paper §6 future work) ---\n";
  row(out, {"stages", "slices", "fmax", "power"}, {8, 10});
  for (const Point& p : depth_points()) {
    const auto e = estimate(p.config);
    row(out, {p.label, fixed(e.slices, 0), mhz(e.fmax_mhz),
              cat(fixed(fpga::estimate_power(e).total(), 0), " mW")}, {8, 10});
  }
}

/// A1: if-conversion on vs off, default 4-ALU configuration.
void ifconv(Results& r, std::ostream& out) {
  row(out, {"benchmark", "cycles (on)", "cycles (off)", "speedup",
            "branches on/off"}, {14, 12, 13, 12, 16});
  for (std::size_t w = 0; w < r.stats.size(); ++w) {
    const SimStats& on = r.stats[w][0];
    const SimStats& off = r.stats[w][1];
    row(out, {r.experiment.workloads[w], cat(on.cycles), cat(off.cycles),
              ratio(off.cycles, on.cycles, 3),
              cat(on.branches_taken + on.branches_not_taken, "/",
                  off.branches_taken + off.branches_not_taken)});
  }
  out << "\n(if-conversion trades branch bubbles for nullified predicated "
         "ops)\n";
}

/// An A2 point: register-port budget, forwarding, shared memory banks.
Point port(const char* label, unsigned budget, bool fwd, bool shared = false) {
  Point p{label, {}};
  p.config.reg_port_budget = budget;
  p.config.forwarding = fwd;
  p.config.unified_memory_contention = shared;
  return p;
}

void ports(Results& r, std::ostream& out) {
  const auto& [dct, sha] = std::tie(r.stats[0], r.stats[1]);
  const auto& points = r.experiment.points;
  row(out, {"configuration", "DCT cycles", "port stalls", "SHA cycles",
            "port stalls"}, {26, 12});
  for (std::size_t p = 0; p < 5; ++p) {
    row(out, {points[p].label, cat(dct[p].cycles), cat(dct[p].stall_reg_ports),
              cat(sha[p].cycles), cat(sha[p].stall_reg_ports)}, {26, 12});
  }
  out << "\n--- unified-memory contention (data steals fetch bandwidth) ---\n";
  for (std::size_t p = 5; p < 7; ++p) {
    row(out, {points[p].label, cat(dct[p].cycles)}, {26, 12},
        cat("  (mem stalls ", dct[p].stall_mem_contention, ")"));
  }
  out << "\npaper design point: 8 ports with forwarding — the scheduler "
         "packs around the budget, so stalls stay near zero; disabling "
         "forwarding exposes the limit\n";
}

/// A4: a custom `rotr` instruction buys cycles with slices on a kernel
/// of four dependent rotations per iteration (the SHA-256 sigma
/// amounts); dropping unused ALU operations saves slices.
void custom(Results& r, std::ostream& out) {
  const auto run_kernel = [](bool use_custom) {
    ProcessorConfig cfg;
    if (use_custom) cfg.custom_ops = {"rotr"};
    std::string src = ".entry main\nmain:\nmov r10, #1000 ;;\n"
                      "mov r11, #0x1234 ;;\npbr b1, @loop ;;\nloop:\n";
    for (int n : {7, 18, 17, 19}) {
      src += use_custom ? cat("custom0 r11, r11, #", n, " ;;\n")
                        : cat("shrl r12, r11, #", n, " ;;\nshl r13, r11, #",
                              32 - n, " ;;\nor r11, r12, r13 ;;\n");
    }
    src += "sub r10, r10, #1 ;;\ncmpp.gt p1, p0, r10, #0 ;;\n"
           "brct b1, p1 ;;\nout r11 ;;\nhalt ;;\n";
    const CustomOpTable ops = CustomOpTable::for_names(cfg.custom_ops);
    EpicSimulator sim(asmtool::assemble(src, cfg), ops);
    sim.run();
    return std::tuple{sim.stats().cycles, fpga::estimate(cfg, &ops).slices,
                      sim.output()};
  };
  const auto [base_cycles, base_slices, base_output] = run_kernel(false);
  const auto [rotr_cycles, rotr_slices, rotr_output] = run_kernel(true);
  out << "--- custom `rotr` instruction (rotation kernel, 1000 "
         "iterations) ---\n";
  if (base_output != rotr_output) {
    out << "!! custom and composed kernels disagree\n";
    r.ok = false;
  }
  row(out, {"", "cycles", "slices"}, {24, 12});
  row(out, {"shift/shift/or", cat(base_cycles), fixed(base_slices, 0)},
      {24, 12});
  row(out, {"custom rotr", cat(rotr_cycles), fixed(rotr_slices, 0)}, {24, 12});
  row(out, {"trade", cat(ratio(base_cycles, rotr_cycles, 2), " faster"),
            cat("+", fixed(rotr_slices - base_slices, 0), " slices")},
      {24, 12, 14});

  out << "\n--- removing unused operations (paper: \"ALUs do not need to "
         "support division...\") ---\n";
  ProcessorConfig cfg;
  const auto trim = [&](const char* name) {
    const auto e = fpga::estimate(cfg);
    row(out, {name, fixed(e.slices, 0)}, {24, 10},
        cat(" slices", pad_left(cat(e.block_mults), 6), " MULT18"));
  };
  trim("full ALUs (4x)");
  cfg.alu.has_div = false;
  trim("no divider");
  cfg.alu.has_mul = false;
  trim("no divider/multiplier");
  cfg.alu.has_shift = cfg.alu.has_minmax = false;
  trim("add/logic only");
}

/// A5: each workload at pipeline depth 2/3/4, timed at the modelled fmax.
void depth(Results& r, std::ostream& out) {
  for (std::size_t w = 0; w < r.stats.size(); ++w) {
    out << "--- " << r.experiment.workloads[w] << " ---\n";
    row(out, {"stages", "fmax", "cycles", "time (ms)", "vs 2-stage"}, {10, 12});
    double base_ms = 0;
    for (std::size_t p = 0; p < r.stats[w].size(); ++p) {
      const Point& point = r.experiment.points[p];
      const double fmax = fpga::estimate(point.config).fmax_mhz;
      const std::uint64_t cycles = r.stats[w][p].cycles;
      const double ms = cycles / (fmax * 1e3);
      if (p == 0) base_ms = ms;
      row(out, {point.label, mhz(fmax), cat(cycles), fixed(ms, 3),
                ratio(base_ms, ms, 2)}, {10, 12});
    }
    out << "\n";
  }
  out << "(arithmetic-bound kernels bank the clock gain; branchy ones give "
         "part of it back in bubbles)\n";
}

/// Every experiment, in DESIGN.md order.
const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> table{
      {"table1", "Table 1: clock cycles per benchmark",
       "SHA {0}x{0} image, AES x{1}, DCT {2}x{2}, Dijkstra {3} nodes", kAll,
       alu_points(true),
       cycle_table("\ncycle ratio SA-110 / EPIC(4 ALUs)   [paper: SHA 3.8x, "
                   "DCT 12.3x, Dijkstra 1.7x]\n", "ratio", 0, 4, "")},
      time_figure("fig3", "Fig. 3: SHA", "sha",
                  "SHA-256 of a {0}x{0} RGB image",
                  "EPIC(4 ALUs) ~1.6x faster than SA-110; time improves with "
                  "ALUs"),
      time_figure("fig4", "Fig. 4: DCT", "dct",
                  "fixed-point 8x8 DCT encode+decode of a {2}x{2} image",
                  "EPIC wins by the largest margin of all four benchmarks and "
                  "scales with ALUs"),
      time_figure("fig5", "Fig. 5: Dijkstra", "dijkstra",
                  "all-pairs shortest paths, {3}-node adjacency matrix",
                  "SA-110 wins on wall-clock; EPIC cycles are ~1.7x fewer but "
                  "the clock gap dominates; flat in ALUs"),
      {"resource", "§5.1 resource usage (analytic Virtex-II model)", "", {}, {},
       resource_usage},
      {"a1", "Ablation A1: if-conversion (predication)", "", kAll,
       {{"on", {}, true}, {"off", {}, false}}, ifconv},
      {"a2", "Ablation A2: register-file ports & forwarding",
       "DCT {2}x{2}, SHA {0}x{0}, 4 ALUs", {"dct", "sha"},
       {port("4 ports + forwarding", 4, true),
        port("8 ports + forwarding (paper)", 8, true),
        port("8 ports, no forwarding", 8, false),
        port("16 ports + forwarding", 16, true),
        port("16 ports, no forwarding", 16, false),
        port("separate data port", 8, true),
        port("shared banks", 8, true, true)},
       ports},
      {"a3", "Ablation A3: instructions per issue (1..4)", "", kAll,
       sweep(&ProcessorConfig::issue_width, {1, 2, 3, 4},
             [](unsigned n) { return cat("issue ", n); }),
       cycle_table("\nspeedup of issue 4 over issue 1:\n", "", 0, 3,
                   "\n(ILP-rich benchmarks gain from width; "
                   "branch/memory-bound ones saturate early)\n")},
      {"a4", "Ablation A4: custom instructions & feature trims", "", {}, {},
       custom},
      {"a5", "Ablation A5: pipeline depth (2/3/4 stages)", "", kAll,
       depth_points(), depth},
  };
  return table;
}

workloads::Workload make_workload(const std::string& name, const Sizes& s) {
  if (name == "sha") return workloads::make_sha(s.sha_dim);
  if (name == "aes") return workloads::make_aes(s.aes_iters);
  if (name == "dct") return workloads::make_dct(s.dct_dim);
  return workloads::make_dijkstra(s.dijkstra_nodes);
}

}  // namespace

std::vector<std::string> experiment_names() {
  std::vector<std::string> names;
  for (const Experiment& e : experiments()) names.push_back(e.name);
  return names;
}

bool run(const std::vector<std::string>& names, const Sizes& sizes,
         std::ostream& out) {
  std::map<bool, pipeline::Service> services;         ///< by if_convert
  std::map<std::string, pipeline::RunOutcome> sa110;  ///< by workload
  bool ok = true;
  for (const Experiment& e : experiments()) {
    if (!names.empty() && std::ranges::find(names, e.name) == names.end()) {
      continue;
    }
    out << "=== " << e.title << " ===\n";
    if (!e.subtitle.empty()) out << "(" << expand(e.subtitle, sizes) << ")\n";
    out << "\n";
    std::vector<workloads::Workload> ws;
    std::vector<std::string> sources;
    for (const std::string& name : e.workloads) {
      ws.push_back(make_workload(name, sizes));
      sources.push_back(ws.back().minic_source);
    }
    Results r{e, std::vector(ws.size(), std::vector<pipeline::RunOutcome>(
                                            e.points.size()))};
    std::map<bool, std::vector<std::size_t>> variants;  ///< EPIC points
    for (std::size_t p = 0; p < e.points.size(); ++p) {
      if (!e.points[p].sa110) variants[e.points[p].if_convert].push_back(p);
    }
    for (const auto& [if_convert, cols] : variants) {
      pipeline::Options options;
      options.codegen.opt.if_convert = if_convert;
      options.sim.max_cycles = kMaxCycles;
      options.jobs = 0;
      std::vector<ProcessorConfig> configs;
      for (const std::size_t p : cols) configs.push_back(e.points[p].config);
      const std::vector<pipeline::RunOutcome> outcomes =
          services.try_emplace(if_convert, options)
              .first->second.run_batch(sources, configs);
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        r.stats[i / cols.size()][cols[i % cols.size()]] = outcomes[i];
      }
    }
    for (std::size_t w = 0; w < ws.size(); ++w) {
      for (std::size_t p = 0; p < e.points.size(); ++p) {
        pipeline::RunOutcome& o = r.stats[w][p];
        if (e.points[p].sa110) {  // cycles and the output check only
          const auto [it, fresh] = sa110.try_emplace(ws[w].name);
          if (fresh) {
            const sarm::SarmSimulator sim = sarm::run_minic_on_sarm(
                ws[w].minic_source, {}, {.max_cycles = kMaxCycles});
            it->second.cycles = sim.stats().cycles;
            it->second.set_output(sim.output());
          }
          o = it->second;
        }
        if (!o.matches(ws[w].expected_output)) {
          out << "!! " << cat(e.name, "/", ws[w].name, "/", e.points[p].label)
              << ": OUTPUT MISMATCH vs golden — results invalid"
              << (o.ok ? "" : cat(": ", o.error)) << "\n";
          r.ok = false;
        }
      }
    }
    e.format(r, out);
    ok = ok && r.ok;
  }
  return ok;
}

}  // namespace cepic::repro
