#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/schedulers/jkube.h"
#include "src/schedulers/yarn.h"

namespace medea::bench {

DeployResult DeployLras(ClusterState& state, ConstraintManager& manager,
                        LraScheduler& scheduler, const std::vector<LraSpec>& specs,
                        int batch_size) {
  DeployResult result;
  size_t next = 0;
  while (next < specs.size()) {
    PlacementProblem problem;
    problem.state = &state;
    problem.manager = &manager;
    const size_t end = std::min(specs.size(), next + static_cast<size_t>(batch_size));
    for (size_t i = next; i < end; ++i) {
      const LraSpec& spec = specs[i];
      MEDEA_CHECK(RegisterLraConstraints(spec, manager).ok());
      problem.lras.push_back(spec.request);
    }
    const PlacementPlan plan = scheduler.Place(problem);
    obs::Observe("bench.deploy_cycle_ms", plan.latency_ms);
    std::vector<bool> committed;
    CommitPlan(problem, plan, state, &committed);
    for (size_t i = 0; i < problem.lras.size(); ++i) {
      if (committed[i]) {
        ++result.placed;
      } else {
        ++result.rejected;
        manager.RemoveApplicationConstraints(problem.lras[i].app);
      }
    }
    next = end;
  }
  return result;
}

void ResetBenchRegistry() {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
}

obs::LatencyHistogram::Snapshot HistogramSnapshot(const std::string& name) {
  return obs::MetricsRegistry::Default().HistogramNamed(name).TakeSnapshot();
}

int FillWithTasks(ClusterState& state, double memory_fraction, const Resource& task_demand) {
  const Resource total = state.TotalCapacity();
  const double target_mb = static_cast<double>(total.memory_mb) * memory_fraction;
  int created = 0;
  ApplicationId filler(900000);
  while (static_cast<double>(state.TotalUsed().memory_mb) < target_mb) {
    // Least-loaded node that fits.
    NodeId best = NodeId::Invalid();
    double best_load = 2.0;
    state.ForEachNode([&](const Node& node) {
      if (!node.available() || !node.CanFit(task_demand)) {
        return;
      }
      const double load = node.used().DominantShareOf(node.capacity());
      if (load < best_load) {
        best_load = load;
        best = node.id();
      }
    });
    if (!best.IsValid()) {
      break;
    }
    MEDEA_CHECK(state.Allocate(filler, best, task_demand, {}, false).ok());
    ++created;
  }
  return created;
}

int FillWithTasksSkewed(ClusterState& state, double memory_fraction, double skew, Rng& rng,
                        const Resource& task_demand) {
  const Resource total = state.TotalCapacity();
  const double target_mb = static_cast<double>(total.memory_mb) * memory_fraction;
  const auto& sus = state.groups().SetsOf(kNodeGroupServiceUnit);
  MEDEA_CHECK(!sus.empty());
  // Weight SU s by (1-skew) + skew * 2*(s+1)/S.
  std::vector<double> weights(sus.size());
  for (size_t s = 0; s < sus.size(); ++s) {
    weights[s] =
        (1.0 - skew) + skew * 2.0 * static_cast<double>(s + 1) / static_cast<double>(sus.size());
  }
  int created = 0;
  ApplicationId filler(910000);
  int failures = 0;
  while (static_cast<double>(state.TotalUsed().memory_mb) < target_mb && failures < 1000) {
    const size_t su = rng.NextWeighted(weights);
    const auto& nodes = sus[su];
    const NodeId node = nodes[rng.NextBounded(nodes.size())];
    if (!state.node(node).available() || !state.node(node).CanFit(task_demand)) {
      ++failures;
      continue;
    }
    MEDEA_CHECK(state.Allocate(filler, node, task_demand, {}, false).ok());
    ++created;
    failures = 0;
  }
  return created;
}

std::unique_ptr<LraScheduler> MakeScheduler(const std::string& name,
                                            const SchedulerConfig& config) {
  if (name == "medea-ilp") {
    return std::make_unique<MedeaIlpScheduler>(config);
  }
  if (name == "medea-nc") {
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, config);
  }
  if (name == "medea-tp") {
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kTagPopularity, config);
  }
  if (name == "serial") {
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kSerial, config);
  }
  if (name == "j-kube") {
    return std::make_unique<JKubeScheduler>(false, config);
  }
  if (name == "j-kube++") {
    return std::make_unique<JKubeScheduler>(true, config);
  }
  if (name == "yarn") {
    return std::make_unique<YarnScheduler>(config);
  }
  if (name == "yarn-pack") {
    return std::make_unique<YarnScheduler>(config, YarnPolicy::kPack);
  }
  MEDEA_CHECK(false);
  return nullptr;
}

void PrintHeader(const std::string& title, const std::string& paper_expectation) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper expectation: %s\n", paper_expectation.c_str());
  std::printf("================================================================\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i == 0) {
      std::printf("%-26s", cells[i].c_str());
    } else {
      std::printf("%14s", cells[i].c_str());
    }
  }
  std::printf("\n");
}

std::string Fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string BuildType() {
  const std::string type = MEDEA_BUILD_TYPE;
  return type.empty() ? "unknown" : type;
}

std::string FmtBox(const Distribution& d) {
  if (d.Empty()) {
    return "-";
  }
  const auto box = d.Box();
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.0f/%.0f/%.0f (%.0f..%.0f)", box.p25, box.p50,
                box.p75, box.p5, box.p99);
  return buffer;
}

std::string FmtBox(const obs::LatencyHistogram::Snapshot& s) {
  if (s.count == 0) {
    return "-";
  }
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.0f/%.0f/%.0f (%.0f..%.0f)", s.PercentileMs(25.0),
                s.p50, s.PercentileMs(75.0), s.PercentileMs(5.0), s.p99);
  return buffer;
}

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

JsonRecords& JsonRecords::Begin() {
  records_.emplace_back();
  return *this;
}

JsonRecords& JsonRecords::End() { return *this; }

JsonRecords& JsonRecords::Field(const std::string& key, const std::string& value) {
  MEDEA_CHECK(!records_.empty());
  records_.back().emplace_back(key, JsonQuote(value));
  return *this;
}

JsonRecords& JsonRecords::Field(const std::string& key, const char* value) {
  return Field(key, std::string(value));
}

JsonRecords& JsonRecords::Field(const std::string& key, double value) {
  MEDEA_CHECK(!records_.empty());
  char buffer[64];
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "null");  // JSON has no inf/nan
  }
  records_.back().emplace_back(key, buffer);
  return *this;
}

JsonRecords& JsonRecords::Field(const std::string& key, long long value) {
  MEDEA_CHECK(!records_.empty());
  records_.back().emplace_back(key, std::to_string(value));
  return *this;
}

JsonRecords& JsonRecords::Field(const std::string& key, int value) {
  return Field(key, static_cast<long long>(value));
}

JsonRecords& JsonRecords::Field(const std::string& key, bool value) {
  MEDEA_CHECK(!records_.empty());
  records_.back().emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string JsonRecords::str() const {
  std::string out = "[\n";
  for (size_t r = 0; r < records_.size(); ++r) {
    out += "  {";
    for (size_t f = 0; f < records_[r].size(); ++f) {
      if (f > 0) {
        out += ", ";
      }
      out += JsonQuote(records_[r][f].first);
      out += ": ";
      out += records_[r][f].second;
    }
    out += r + 1 < records_.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

bool JsonRecords::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonRecords: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = str();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "JsonRecords: short write to %s\n", path.c_str());
  }
  return ok;
}

}  // namespace medea::bench
