#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "asmtool/assembler.hpp"
#include "core/custom.hpp"
#include "frontend/irgen.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "pipeline/thread_pool.hpp"
#include "pipeline/version.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::pipeline {

namespace {

/// Canonical key material for the optimiser slice of CodegenOptions.
/// Every field is spelled out so that adding one without extending this
/// list shows up in review, not as a stale-artifact bug.  Deliberately
/// absent: verify_each_pass and verify_analyses, which are pure checks
/// and never change the emitted IR.
std::string opt_options_text(const opt::OptOptions& o, bool optimize) {
  return cat("optimize=", optimize ? 1 : 0, ";fold=", o.fold ? 1 : 0,
             ";copyprop=", o.copy_propagate ? 1 : 0, ";cse=", o.cse ? 1 : 0,
             ";licm=", o.licm ? 1 : 0, ";dce=", o.dce ? 1 : 0,
             ";simplify_cfg=", o.simplify_cfg ? 1 : 0,
             ";inline=", o.inline_calls ? 1 : 0,
             ";if_convert=", o.if_convert ? 1 : 0,
             ";inline_max=", o.inline_max_insts,
             ";if_convert_max=", o.if_convert_max_ops,
             ";rounds=", o.max_rounds);
}

/// Canonical key material for the backend slice.
std::string backend_options_text(const backend::BackendOptions& b) {
  return cat("schedule=", b.schedule ? 1 : 0,
             ";port_override=", b.test_override_port_budget,
             ";stack_top=", b.stack_top);
}

/// Werror-independent wire form of an IR lint report for the kIrLint
/// granularity: one diagnostic per line,
///   <rule> <severity> <block> <inst> <function>\t<message>
/// so a typed LintReport can be rebuilt on a store hit and rendered
/// with the *caller's* werror setting.
std::string encode_ir_lint(const analysis::LintReport& report) {
  std::string blob;
  for (const analysis::LintDiagnostic& d : report.diags) {
    blob += cat(static_cast<unsigned>(d.rule), " ",
                static_cast<unsigned>(d.severity), " ", d.block, " ", d.inst,
                " ", d.function, "\t", d.message, "\n");
  }
  return blob;
}

analysis::LintReport decode_ir_lint(const std::string& blob) {
  analysis::LintReport report;
  std::istringstream in(blob);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    unsigned rule = 0;
    unsigned severity = 0;
    analysis::LintDiagnostic d;
    if (!(fields >> rule >> severity >> d.block >> d.inst) ||
        rule >= analysis::kNumLintRules || severity > 1) {
      throw Error(cat("corrupt IR-lint store artifact: `", line, "`"));
    }
    d.rule = static_cast<analysis::LintRule>(rule);
    d.severity = static_cast<analysis::LintSeverity>(severity);
    fields.get();  // the separator space before the function name
    std::getline(fields, d.function, '\t');
    std::getline(fields, d.message);
    report.diags.push_back(std::move(d));
  }
  return report;
}

/// One step of program_content_hash: a bijection of the state for a
/// fixed word and of the word for a fixed state, so two word streams
/// that differ in one word always hash apart.
constexpr std::uint64_t fold64(std::uint64_t h, std::uint64_t w) {
  return (std::rotl(h, 29) ^ w) * 0x9e3779b97f4a7c15ull;
}

constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
  return lo | static_cast<std::uint64_t>(hi) << 32;
}

/// Dedup digest of everything a simulation reads from a Program besides
/// its config: every instruction's fields, the data image and the entry
/// bundle. Symbols are left out; no simulator reads them. An in-memory
/// key only (never persisted), computed once per compile group and
/// combined per point with the sim slice.
std::uint64_t program_content_hash(const Program& program) {
  std::uint64_t h = fold64(kFnvOffset64, pack(static_cast<std::uint32_t>(
                                                  program.code.size()),
                                              program.entry_bundle));
  h = fold64(h, program.data.size());
  for (const Instruction& i : program.code) {
    h = fold64(h, pack(static_cast<std::uint32_t>(i.op) |
                           static_cast<std::uint32_t>(i.src1.kind) << 16 |
                           static_cast<std::uint32_t>(i.src2.kind) << 24,
                       i.pred));
    h = fold64(h, pack(i.dest1, i.dest2));
    h = fold64(h, pack(i.src1.reg, static_cast<std::uint32_t>(i.src1.lit)));
    h = fold64(h, pack(i.src2.reg, static_cast<std::uint32_t>(i.src2.lit)));
  }
  const std::span<const std::uint8_t> data = program.data;
  std::size_t at = 0;
  for (; at + 8 <= data.size(); at += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + at, 8);
    h = fold64(h, w);
  }
  // The tail, zero-padded: the size folded above tells the two apart.
  std::uint64_t tail = 0;
  if (at < data.size()) std::memcpy(&tail, data.data() + at, data.size() - at);
  return fold64(h, tail);
}

}  // namespace

Service::Service(Options options)
    : options_(std::move(options)),
      store_(options_.store_dir),
      codegen_text_(opt_options_text(options_.codegen.opt,
                                     options_.codegen.optimize)) {
  // The one stack-top rule: every Program fits the Service's simulator.
  // A stack top the caller set (other than this one) would be lost.
  const auto top = static_cast<std::uint32_t>(options_.sim.mem_size);
  CEPIC_CHECK(options_.codegen.backend.stack_top ==
                      backend::BackendOptions{}.stack_top ||
                  options_.codegen.backend.stack_top == top,
              "Options::codegen.backend.stack_top is set from sim.mem_size; "
              "set sim.mem_size instead");
  options_.codegen.backend.stack_top = top;
}

ProcessorConfig Service::codegen_slice(const ProcessorConfig& config) {
  return config.codegen_slice();
}

ProcessorConfig Service::sim_slice(const ProcessorConfig& config) {
  // The dual slice: fields the *simulator* never reads. num_alus only
  // sizes Mdes::units(), which the simulator never queries (issue is
  // bounded by issue_width); max_regs_per_instr only gates mcheck and
  // the assembler's per-instruction validator. Everything else —
  // register file sizes, issue width, datapath width, port budget,
  // forwarding, latencies, feature trims, custom ops, pipeline_stages,
  // unified_memory_contention — changes simulated behaviour and stays.
  static const ProcessorConfig kDefaults;
  ProcessorConfig slice = config;
  slice.num_alus = kDefaults.num_alus;
  slice.max_regs_per_instr = kDefaults.max_regs_per_instr;
  return slice;
}

ArtifactId Service::ir_artifact(std::string_view source) const {
  return ArtifactId{
      Granularity::kIr,
      fnv1a64(source, fnv1a64(cat("ir|", store_version_tag(), "|",
                                  codegen_text_, "|")))};
}

ArtifactId Service::program_artifact(std::string_view source,
                                     const ProcessorConfig& slice) const {
  const std::string material =
      cat("prog|", store_version_tag(), "|", codegen_text_, "|",
          backend_options_text(options_.codegen.backend), "|",
          slice.to_text(), "|");
  return ArtifactId{Granularity::kProgram,
                    fnv1a64(source, fnv1a64(material))};
}

ir::Module Service::compile_module(std::string_view source) {
  return shared_module(source);
}

const ir::Module& Service::shared_module(std::string_view source) {
  obs::Span span("compile_module", "pipeline");
  const ArtifactId id = ir_artifact(source);
  Once<ir::Module>* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry = &modules_[id.digest];
  }
  bool built = false;
  const ir::Module& shared = entry->get([&] {
    built = true;
    // Warm store: the Module comes back as a packed CEPX binary — a
    // decode, not a reparse (no frontend span appears in the trace).
    ir::Module module;
    {
      obs::Span decode_span("module_decode", "pipeline");
      if (store_.get(id, module)) {
        span.arg("cached", "store");
        ++module_decodes_;
        return module;
      }
      decode_span.arg("cached", "miss");
    }
    span.arg("cached", "miss");
    module = minic::compile_to_ir(source);
    if (options_.codegen.optimize) opt::optimize(module, options_.codegen.opt);
    store_.put(id, module);
    ++frontend_runs_;
    return module;
  }, &module_waits_);
  if (!built) span.arg("cached", "memo");
  return shared;
}

std::string Service::compile_ir_text(std::string_view source) {
  return ir::to_string(shared_module(source));
}

analysis::LintReport Service::lint_ir(std::string_view source, bool werror) {
  obs::Span span("lint_ir", "pipeline");
  // Shares the IR artifact's digest: the lint is a pure function of the
  // optimised Module, which that digest already identifies.
  const ArtifactId id{Granularity::kIrLint, ir_artifact(source).digest};
  std::string blob;
  if (store_.get(id, blob)) {
    span.arg("cached", "store");
  } else {
    span.arg("cached", "miss");
    blob = encode_ir_lint(analysis::lint_module(shared_module(source)));
    store_.put(id, blob);
    ++ir_lint_runs_;
  }
  analysis::LintReport report = decode_ir_lint(blob);
  report.werror = werror;
  return report;
}

asmtool::Listing Service::compile_listing(std::string_view source,
                                          const ProcessorConfig& slice) {
  // Compile against the slice: identical output by the partition
  // contract, and canonical — the artifact serves every simulation-only
  // variant of the config byte-for-byte.
  asmtool::Listing listing = backend::compile_ir_to_listing(
      shared_module(source), slice, options_.codegen.backend);
  ++backend_runs_;
  return listing;
}

Program Service::compile_program(std::string_view source,
                                 const ProcessorConfig& config) {
  obs::Span span("compile_program", "pipeline");
  obs::ScopedObserve latency("pipeline.compile_ns");
  const ProcessorConfig slice = codegen_slice(config);
  const ArtifactId id = program_artifact(source, slice);
  Program program;
  if (store_.get(id, program)) {
    span.arg("cached", "store");
    program.config = config;  // re-stamp simulation-only fields
    return program;
  }
  span.arg("cached", "miss");
  program = asmtool::encode(compile_listing(source, slice), slice,
                            options_.sim.mem_size);
  store_.put(id, program);
  program.config = config;
  return program;
}

std::string Service::compile_asm(std::string_view source,
                                 const ProcessorConfig& config) {
  obs::Span span("compile_asm", "pipeline");
  return asmtool::to_text(compile_listing(source, codegen_slice(config)));
}

EpicSimulator Service::run(std::string_view source,
                           const ProcessorConfig& config) {
  EpicSimulator sim(compile_program(source, config),
                    CustomOpTable::for_names(config.custom_ops),
                    options_.sim);
  {
    obs::Span span("simulate", "pipeline");
    obs::ScopedObserve latency("pipeline.simulate_ns");
    sim.run();
    span.arg("cycles", sim.stats().cycles);
  }
  ++sim_images_;
  ++simulations_;
  return sim;
}

std::string Service::result_cache_path() const {
  if (!options_.result_cache_file.empty()) return options_.result_cache_file;
  if (store_.persistent()) {
    return (std::filesystem::path(store_.directory()) / "results.cache")
        .string();
  }
  return {};
}

std::vector<RunOutcome> Service::run_batch(
    const std::vector<std::string>& sources,
    const std::vector<ProcessorConfig>& configs) {
  const std::size_t cols = configs.size();
  std::vector<RunOutcome> outcomes(sources.size() * cols);

  const std::string results_path = result_cache_path();
  std::call_once(results_loaded_, [&] {
    if (!results_path.empty()) results_.load_file(results_path);
  });

  // Result-cache context: everything outside (source, config) that the
  // simulation outcome depends on. Folded into the key so a cache file
  // can never answer for different compile or simulation options.
  const std::uint64_t context = fnv1a64(
      cat("run|", store_version_tag(), "|", codegen_text_, "|",
          backend_options_text(options_.codegen.backend),
          "|mem=", options_.sim.mem_size,
          ";max_cycles=", options_.sim.max_cycles,
          // Execution tiers are differentially proven bit-identical,
          // but a cached result must never mask a tier divergence: a
          // hit may only answer for the tier that produced it.
          ";tier=", to_string(options_.sim.exec_tier)));

  struct Item {
    std::size_t index;   ///< slot in `outcomes`
    std::size_t source;  ///< index into `sources`
    std::size_t config;  ///< index into `configs`
    ResultCache::Key key;
  };
  // Items not answered by the result cache, grouped by program store
  // key: one compile task per group feeds its simulate tasks.
  std::map<std::uint64_t, std::vector<Item>> groups;

  // Per config, once: validation (an invalid one fails its whole
  // column), its result-cache and sim-slice hashes, and the distinct
  // codegen slice it compiles against.
  std::vector<std::string> invalid(cols);
  std::vector<std::uint64_t> config_hashes(cols);
  std::vector<std::uint64_t> sim_hashes(cols);
  std::vector<std::size_t> slice_of(cols);
  std::vector<ProcessorConfig> slices;
  std::map<std::string, std::size_t> slice_index;
  for (std::size_t p = 0; p < cols; ++p) {
    try {
      configs[p].validate();
    } catch (const std::exception& e) {
      invalid[p] = e.what();
      continue;
    }
    config_hashes[p] = configs[p].stable_hash();
    sim_hashes[p] = sim_slice(configs[p]).stable_hash();
    ProcessorConfig slice = codegen_slice(configs[p]);
    const auto [it, fresh] =
        slice_index.try_emplace(slice.to_text(), slices.size());
    if (fresh) slices.push_back(std::move(slice));
    slice_of[p] = it->second;
  }

  for (std::size_t w = 0; w < sources.size(); ++w) {
    const std::uint64_t source_hash =
        fnv1a64(cat(hex64(fnv1a64(sources[w])), ":", hex64(context)));
    // This source's Program store digest per distinct slice, on first
    // need: the source is hashed once per slice, not once per point.
    std::vector<std::optional<std::uint64_t>> digests(slices.size());
    for (std::size_t p = 0; p < cols; ++p) {
      const std::size_t index = w * cols + p;
      RunOutcome& out = outcomes[index];
      if (!invalid[p].empty()) {
        out.error = invalid[p];
        continue;
      }
      const ResultCache::Key key{source_hash, config_hashes[p]};
      if (results_.lookup(key, out)) {
        out.from_result_cache = true;
        continue;
      }
      std::optional<std::uint64_t>& digest = digests[slice_of[p]];
      if (!digest) {
        digest = program_artifact(sources[w], slices[slice_of[p]]).digest;
      }
      groups[*digest].push_back(Item{index, w, p, key});
    }
  }

  // Simulation dedup across (and within) groups: one entry per (program
  // content hash, sim_slice() hash). Its first simulate task runs the
  // simulation; identical items wait in the entry and share the outcome.
  std::mutex sims_mu;  ///< guards the map, not its entries
  std::map<std::pair<std::uint64_t, std::uint64_t>, Once<RunOutcome>> sims;

  // A compile group's share of the simulate tasks: the compiled Program
  // until the first simulation turns it into the group's one SimImage.
  // Every simulate task of the group holds it, so the image is released
  // when the group's last simulation ends.
  struct GroupImage {
    std::uint64_t content = 0;  ///< program_content_hash, once per group
    Program program;            ///< moved into `image` when it is built
    Once<std::shared_ptr<const SimImage>> image;
  };

  // One compile task per group: compile (or fetch) the Program, then
  // submit the group's simulate tasks to the same pool.
  ThreadPool pool(options_.jobs == 0 ? ThreadPool::hardware_jobs()
                                     : options_.jobs);
  const auto run_group = [this, &sources, &configs, &outcomes, &pool,
                          &sims_mu, &sims, &sim_hashes](
                             const std::vector<Item>* group,
                             std::uint64_t submit_ns) {
    obs::Span task_span("batch.compile", "pipeline");
    const std::uint64_t wait_ns = obs::now_ns() - submit_ns;
    obs::observe("pipeline.queue_wait_ns", wait_ns);
    task_span.arg("queue_wait_ns", wait_ns);
    task_span.arg("group_items", static_cast<std::uint64_t>(group->size()));
    const Item& first = group->front();
    const auto shared = std::make_shared<GroupImage>();
    try {
      shared->program =
          compile_program(sources[first.source], configs[first.config]);
      shared->content = program_content_hash(shared->program);
    } catch (const std::exception& e) {
      // Leave the faulting task's last-moments trace behind (only
      // dumps when a --flight-out path is configured).
      obs::flight_record_fault(e.what());
      for (const Item& item : *group) outcomes[item.index].error = e.what();
      return;
    }
    for (const Item& item : *group) {
      const Item* it = &item;
      const std::uint64_t sim_submit_ns = obs::now_ns();
      pool.submit([this, shared, it, &configs, &outcomes, &sims_mu, &sims,
                   &sim_hashes, sim_submit_ns] {
        obs::Span task_span("batch.simulate", "pipeline");
        const std::uint64_t wait_ns = obs::now_ns() - sim_submit_ns;
        obs::observe("pipeline.queue_wait_ns", wait_ns);
        task_span.arg("queue_wait_ns", wait_ns);
        Once<RunOutcome>* entry = nullptr;
        {
          std::lock_guard<std::mutex> lock(sims_mu);
          entry = &sims[{shared->content, sim_hashes[it->config]}];
        }
        const ProcessorConfig& config = configs[it->config];
        bool simulated = false;
        const RunOutcome& outcome = entry->get([&] {
          simulated = true;
          RunOutcome fresh;
          try {
            // The group's first simulation builds the image; the
            // rest share it.
            const std::shared_ptr<const SimImage>& image = shared->image.get(
                [&] {
                  auto built = std::make_shared<const SimImage>(
                      std::move(shared->program),
                      CustomOpTable::for_names(config.custom_ops));
                  ++sim_images_;
                  return built;
                },
                &image_waits_);
            EpicSimulator sim(image, config, options_.sim);
            {
              obs::ScopedObserve latency("pipeline.simulate_ns");
              sim.run();
            }
            static_cast<SimStats&>(fresh) = sim.stats();
            fresh.set_output(sim.output());
            fresh.ret = sim.gpr(3);
            ++simulations_;
          } catch (const std::exception& e) {
            obs::flight_record_fault(e.what());
            fresh.error = e.what();
          }
          return fresh;
        });
        if (!simulated) {
          task_span.arg("dedup", "hit");
          ++sim_dedup_hits_;
        }
        if (outcome.ok) results_.insert(it->key, outcome);
        outcomes[it->index] = outcome;
      });
    }
  };

  // One task per source with work, largest source text first. It runs
  // the source's first group inline, so the Module exists (or the store
  // has answered) before the source's other groups are queued: no group
  // task parks on another task's frontend.
  std::vector<std::vector<const std::vector<Item>*>> by_source(sources.size());
  for (const auto& [key, items] : groups) {
    (void)key;
    by_source[items.front().source].push_back(&items);
  }
  std::vector<std::size_t> order;
  for (std::size_t w = 0; w < sources.size(); ++w) {
    if (!by_source[w].empty()) order.push_back(w);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&sources](std::size_t a, std::size_t b) {
                     return sources[a].size() > sources[b].size();
                   });
  for (const std::size_t w : order) {
    const auto* mine = &by_source[w];
    const std::uint64_t submit_ns = obs::now_ns();
    pool.submit([&pool, &run_group, mine, submit_ns] {
      run_group(mine->front(), submit_ns);
      for (std::size_t g = 1; g < mine->size(); ++g) {
        const std::vector<Item>* group = (*mine)[g];
        const std::uint64_t group_submit_ns = obs::now_ns();
        pool.submit([&run_group, group, group_submit_ns] {
          run_group(group, group_submit_ns);
        });
      }
    });
  }
  pool.wait();

  if (!results_path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(results_path).parent_path(), ec);
    results_.save_file(results_path);
  }
  return outcomes;
}

void publish_stats(const ServiceStats& s) {
  obs::Registry& r = obs::Registry::instance();
  r.set_counter("pipeline.frontend_runs", s.frontend_runs);
  r.set_counter("pipeline.backend_runs", s.backend_runs);
  r.set_counter("pipeline.module_decodes", s.module_decodes);
  r.set_counter("pipeline.simulations", s.simulations);
  r.set_counter("pipeline.sim_images", s.sim_images);
  r.set_counter("pipeline.ir_lint_runs", s.ir_lint_runs);
  r.set_counter("pipeline.result_hits", s.result_hits);
  r.set_counter("pipeline.result_misses", s.result_misses);
  r.set_counter("pipeline.sim_dedup_hits", s.sim_dedup_hits);
  r.set_counter("pipeline.module_waits", s.module_waits);
  r.set_counter("pipeline.image_waits", s.image_waits);
  r.set_counter("pipeline.compiles", s.compiles());
  const auto fold = [&r](const char* name, const GranularityStats& g) {
    r.set_counter(cat("store.", name, ".hits"), g.hits);
    r.set_counter(cat("store.", name, ".misses"), g.misses);
    r.set_counter(cat("store.", name, ".puts"), g.puts);
  };
  fold("ir", s.store.ir);
  fold("program", s.store.program);
  fold("irlint", s.store.ir_lint);
}

void Service::publish_stats() const { pipeline::publish_stats(stats()); }

Program compile_once(std::string_view source, const ProcessorConfig& config,
                     const CodegenOptions& codegen) {
  Options options;
  options.codegen = codegen;
  return Service(std::move(options)).compile_program(source, config);
}

EpicSimulator run_once(std::string_view source, const ProcessorConfig& config,
                       const CodegenOptions& codegen, const SimOptions& sim) {
  Options options;
  options.codegen = codegen;
  options.sim = sim;
  Service service(std::move(options));
  return service.run(source, config);
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.store = store_.stats();
  s.result_hits = results_.hits();
  s.result_misses = results_.misses();
  s.frontend_runs = frontend_runs_;
  s.backend_runs = backend_runs_;
  s.module_decodes = module_decodes_;
  s.simulations = simulations_;
  s.sim_images = sim_images_;
  s.ir_lint_runs = ir_lint_runs_;
  s.sim_dedup_hits = sim_dedup_hits_;
  s.module_waits = module_waits_;
  s.image_waits = image_waits_;
  return s;
}

}  // namespace cepic::pipeline
