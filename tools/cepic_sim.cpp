// cepic-sim — run a CEPX binary on the cycle-level EPIC simulator (the
// ReaCT-ILP role); prints the output stream and the cycle statistics.
//
//   cepic-sim prog.cepx [--trace] [--max-cycles N]
//   cepic-sim prog.cepx --timeline-out t.json   # per-cycle Perfetto view
#include "tool_common.hpp"

#include "sim/simulator.hpp"
#include "sim/timeline.hpp"

int main(int argc, char** argv) {
  using namespace cepic;
  return tools::tool_main("cepic-sim", [&]() -> int {
    SimOptions options;
    bool trace = false;

    tools::OptionTable table("cepic-sim <prog.cepx> [options]");
    table.flag("--trace", "print the per-cycle execution trace", &trace);
    table.uint64_positive("--max-cycles", "N", "simulation cycle budget",
                          &options.max_cycles);
    tools::add_exec_tier_option(table, &options.exec_tier);
    std::string timeline_out;
    std::uint64_t timeline_limit = 1'000'000;
    table.str("--timeline-out", "FILE",
              "write a per-cycle event timeline as Chrome trace JSON",
              &timeline_out);
    table.uint64_positive(
        "--timeline-limit", "N",
        "bundle cap of the timeline and the trace (truncates with a marker)",
        &timeline_limit);
    tools::ObsOptions obs_opts;
    tools::add_obs_options(table, &obs_opts);

    std::vector<std::string> positionals;
    if (!table.parse(argc, argv, positionals)) return 2;
    if (positionals.size() != 1) return table.usage();
    tools::obs_begin(obs_opts);

    const std::vector<std::uint8_t> bytes =
        tools::read_binary(positionals.front());
    if (const serial::PayloadKind kind = serial::detect_kind(bytes);
        kind != serial::PayloadKind::kProgram) {
      throw Error(cat(positionals.front(),
                      " is not an assembled program (container holds: ",
                      serial::to_string(kind),
                      "); produce one with cepic-cc or cepic-asm first"));
    }
    EpicSimulator sim(serial::decode_program(bytes), {}, options);
    // The trace is a rendering of the timeline: either output attaches
    // it, which runs the simulation on the decode tier.
    SimTimeline timeline(sim.config(), timeline_limit);
    if (trace || !timeline_out.empty()) sim.set_timeline(&timeline);
    {
      obs::Span span("simulate", "sim");
      sim.run();
      span.arg("cycles", sim.stats().cycles);
    }
    if (!timeline_out.empty()) {
      tools::write_file(timeline_out, timeline.to_chrome_json());
    }

    if (trace) std::cout << timeline.to_text(sim.program());
    std::cout << "output:";
    for (std::uint32_t v : sim.output()) std::cout << " " << v;
    std::cout << "\nreturn value (r3): " << sim.gpr(3) << "\n\n"
              << sim.stats().report();
    obs::Registry& metrics = obs::Registry::instance();
    metrics.set_counter("sim.cycles", sim.stats().cycles);
    metrics.set_counter("sim.ops_committed", sim.stats().ops_committed);
    // Threaded-tier telemetry: how much of the run the compiled blocks
    // carried, and how much per-bundle timing work they compiled away.
    if (const ThreadedCache& tc = sim.threaded_cache(); tc.enabled()) {
      metrics.set_counter("sim.threaded.blocks", tc.blocks.size());
      metrics.set_counter("sim.threaded.block_entries", tc.block_entries);
      metrics.set_counter("sim.threaded.fallback_bundles",
                          tc.fallback_bundles);
      metrics.set_counter("sim.threaded.cold_steps", tc.cold_steps);
      metrics.set_counter("sim.threaded.elided_sources", tc.elided_sources);
      metrics.set_counter("sim.threaded.folded_bundles", tc.folded_bundles);
    }
    tools::obs_finish(obs_opts);
    return 0;
  });
}
