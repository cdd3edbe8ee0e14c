#include "explore/explore.hpp"

#include <algorithm>
#include <sstream>

#include "core/custom.hpp"
#include "fpga/model.hpp"
#include "support/bits.hpp"
#include "support/text.hpp"

namespace cepic::explore {

namespace {

/// Fill the derived analytic fields of a point from its config and the
/// cached/simulated cycle count. Pure function of (config, cycles) —
/// identical for cached and fresh points.
void fill_analytics(PointResult& p) {
  const CustomOpTable custom = CustomOpTable::for_names(p.config.custom_ops);
  const fpga::ResourceEstimate area = fpga::estimate(p.config, &custom);
  p.slices = area.slices;
  p.block_rams = area.block_rams;
  p.block_mults = area.block_mults;
  p.fmax_mhz = area.fmax_mhz;
  p.power_mw = fpga::estimate_power(area).total();
  p.time_ms = static_cast<double>(p.cycles) / (area.fmax_mhz * 1e3);
}

/// True if `a` Pareto-dominates `b` on (cycles, slices, power).
bool dominates(const PointResult& a, const PointResult& b) {
  if (a.cycles > b.cycles || a.slices > b.slices || a.power_mw > b.power_mw) {
    return false;
  }
  return a.cycles < b.cycles || a.slices < b.slices || a.power_mw < b.power_mw;
}

}  // namespace

std::vector<std::size_t> SweepResult::pareto_indices() const {
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].ok) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      dominated = j != i && points[j].ok && dominates(points[j], points[i]);
    }
    if (!dominated) frontier.push_back(i);
  }
  return frontier;
}

bool SweepResult::is_pareto(std::size_t index) const {
  const auto frontier = pareto_indices();
  return std::binary_search(frontier.begin(), frontier.end(), index);
}

std::string SweepResult::to_csv() const {
  const auto frontier = pareto_indices();
  std::string csv =
      "point,config,alus,issue,ports,stages,ok,cycles,ilp,slices,brams,"
      "mults,fmax_mhz,time_ms,power_mw,out_words,out_hash,ret,pareto\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    const bool pareto = std::binary_search(frontier.begin(), frontier.end(), i);
    csv += cat(i, ",", p.config.summary(), ",", p.config.num_alus, ",",
               p.config.issue_width, ",", p.config.reg_port_budget, ",",
               p.config.pipeline_stages, ",", p.ok ? 1 : 0, ",", p.cycles, ",",
               fixed(p.ilp(), 3), ",", fixed(p.slices, 0), ",", p.block_rams,
               ",", p.block_mults, ",", fixed(p.fmax_mhz, 1), ",",
               fixed(p.time_ms, 3), ",", fixed(p.power_mw, 1), ",",
               p.output_words, ",", hex64(p.output_hash), ",", p.ret, ",",
               pareto ? 1 : 0, "\n");
  }
  return csv;
}

std::string SweepResult::to_json() const {
  const auto frontier = pareto_indices();
  std::ostringstream os;
  os << "{\n  \"source_hash\": \"" << hex64(source_hash)
     << "\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    const bool pareto = std::binary_search(frontier.begin(), frontier.end(), i);
    os << "    {\"point\": " << i << ", \"config\": \"" << p.config.summary()
       << "\", \"config_hash\": \"" << hex64(p.config_hash)
       << "\", \"ok\": " << (p.ok ? "true" : "false");
    if (p.ok) {
      os << ", \"cycles\": " << p.cycles << ", \"ilp\": " << fixed(p.ilp(), 3)
         << ", \"slices\": " << fixed(p.slices, 0)
         << ", \"brams\": " << p.block_rams << ", \"mults\": " << p.block_mults
         << ", \"fmax_mhz\": " << fixed(p.fmax_mhz, 1)
         << ", \"time_ms\": " << fixed(p.time_ms, 3)
         << ", \"power_mw\": " << fixed(p.power_mw, 1)
         << ", \"out_words\": " << p.output_words << ", \"out_hash\": \""
         << hex64(p.output_hash) << "\", \"ret\": " << p.ret
         << ", \"pareto\": " << (pareto ? "true" : "false");
    } else {
      os << ", \"error\": \"" << json_escape(p.error) << "\"";
    }
    os << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

SweepBatch run_sweep_batch(const std::vector<std::string>& sources,
                           const SweepSpec& spec,
                           const pipeline::Options& options) {
  pipeline::Service service(options);

  const std::vector<pipeline::RunOutcome> outcomes =
      service.run_batch(sources, spec.points);

  SweepBatch batch;
  batch.sweeps.resize(sources.size());
  const std::size_t cols = spec.points.size();
  for (std::size_t w = 0; w < sources.size(); ++w) {
    SweepResult& result = batch.sweeps[w];
    result.source_hash = fnv1a64(sources[w]);
    result.points.resize(cols);
    for (std::size_t p = 0; p < cols; ++p) {
      PointResult& point = result.points[p];
      static_cast<pipeline::RunOutcome&>(point) = outcomes[w * cols + p];
      point.config = spec.points[p];
      point.config_hash = spec.points[p].stable_hash();
      if (point.from_result_cache) ++result.cache_hits;
      if (point.ok) fill_analytics(point);
    }
  }
  batch.stats = service.stats();
  return batch;
}

SweepResult run_sweep(std::string_view source, const SweepSpec& spec,
                      const pipeline::Options& options) {
  SweepBatch batch =
      run_sweep_batch({std::string(source)}, spec, options);
  return std::move(batch.sweeps.front());
}

}  // namespace cepic::explore
