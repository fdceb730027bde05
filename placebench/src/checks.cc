#include "checks.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/strings.h"

namespace placebench {
namespace {

std::string AppTag(uint32_t app) { return medea::StrFormat("appID:%u", app); }

bool HasAll(const std::vector<std::string>& have, const std::vector<std::string>& need) {
  for (const std::string& tag : need) {
    if (std::find(have.begin(), have.end(), tag) == have.end()) {
      return false;
    }
  }
  return true;
}

std::string Fmt(const medea::Resource& r) {
  return medea::StrFormat("<%lld MB, %d cores>", static_cast<long long>(r.memory_mb), r.vcores);
}

}  // namespace

ObservedState Observe(const medea::ClusterState& state, const medea::TagPool& tags) {
  ObservedState observed;
  observed.groups = state.groups_ptr();
  state.ForEachNode([&](const medea::Node& node) {
    observed.nodes.push_back(ObservedState::NodeFacts{node.capacity(), node.available()});
  });
  state.ForEachContainer([&](const medea::ContainerInfo& info) {
    ObservedState::ContainerFacts facts;
    facts.app = info.app.value;
    facts.node = info.node.value;
    facts.resource = info.resource;
    facts.long_running = info.long_running;
    for (medea::TagId tag : info.tags) {
      facts.tags.push_back(tags.Name(tag));
    }
    observed.containers.push_back(std::move(facts));
  });
  return observed;
}

std::vector<std::string> CheckCapacity(const ObservedState& observed) {
  std::vector<std::string> errors;
  std::vector<medea::Resource> used(observed.nodes.size());
  for (const auto& c : observed.containers) {
    if (c.node >= used.size()) {
      errors.push_back(medea::StrFormat("container of app %u on unknown node %u", c.app, c.node));
      continue;
    }
    used[c.node] += c.resource;
  }
  for (size_t n = 0; n < used.size(); ++n) {
    if (!observed.nodes[n].capacity.Fits(used[n])) {
      errors.push_back(medea::StrFormat("node %zu over capacity: %s used of %s", n,
                                        Fmt(used[n]).c_str(),
                                        Fmt(observed.nodes[n].capacity).c_str()));
    }
  }
  return errors;
}

std::vector<std::string> CheckLras(const ObservedState& observed,
                                   const std::vector<LraExpectation>& lras) {
  std::vector<std::string> errors;
  std::map<uint32_t, size_t> held;
  std::map<uint32_t, size_t> on_down_nodes;
  for (const auto& c : observed.containers) {
    if (!c.long_running) {
      continue;
    }
    ++held[c.app];
    if (c.node < observed.nodes.size() && !observed.nodes[c.node].available) {
      ++on_down_nodes[c.app];
    }
  }
  for (const LraExpectation& lra : lras) {
    const size_t have = held.count(lra.app) > 0 ? held[lra.app] : 0;
    if (lra.reported_placed && have != lra.containers) {
      errors.push_back(medea::StrFormat("LRA %u reported placed with %zu of %zu containers",
                                        lra.app, have, lra.containers));
    }
    if (!lra.reported_placed && have != 0) {
      errors.push_back(
          medea::StrFormat("LRA %u reported unplaced but holds %zu containers", lra.app, have));
    }
    if (on_down_nodes.count(lra.app) > 0) {
      errors.push_back(medea::StrFormat("LRA %u has %zu containers on down nodes", lra.app,
                                        on_down_nodes[lra.app]));
    }
  }
  return errors;
}

std::vector<ConstraintDef> HBaseConstraints(uint32_t app) {
  const std::string a = AppTag(app);
  return {
      // Region servers of one instance share a rack.
      ConstraintDef{{a, "hb_rs"}, {a, "hb_rs"}, 1, ConstraintDef::kNoMax, "rack"},
      // Master next to its thrift server, away from its secondary master.
      ConstraintDef{{a, "hb_m"}, {a, "hb_thrift"}, 1, ConstraintDef::kNoMax, "node"},
      ConstraintDef{{a, "hb_m"}, {a, "hb_sec"}, 0, 0, "node"},
  };
}

std::vector<ConstraintDef> TensorFlowConstraints(uint32_t app) {
  const std::string a = AppTag(app);
  return {ConstraintDef{{a, "tf_w"}, {a, "tf_w"}, 1, ConstraintDef::kNoMax, "rack"}};
}

std::vector<ConstraintDef> StormConstraints(uint32_t app, int supervisors) {
  const std::string a = AppTag(app);
  // All supervisors of a topology on one node.
  return {ConstraintDef{{a, "storm_sup"}, {a, "storm_sup"}, supervisors - 1,
                        ConstraintDef::kNoMax, "node"}};
}

std::vector<ConstraintDef> SharedConstraints(int hbase_workers_per_node,
                                             int tf_workers_per_node) {
  return {
      ConstraintDef{{"hb_rs"}, {"hb_rs"}, 0, hbase_workers_per_node, "node"},
      ConstraintDef{{"tf_w"}, {"tf_w"}, 0, tf_workers_per_node, "node"},
  };
}

long long CountSatisfied(const ObservedState& observed, const std::vector<ConstraintDef>& defs,
                         long long* subjects) {
  // Containers per node, from the raw records.
  std::vector<std::vector<size_t>> on_node(observed.nodes.size());
  for (size_t i = 0; i < observed.containers.size(); ++i) {
    if (observed.containers[i].node < on_node.size()) {
      on_node[observed.containers[i].node].push_back(i);
    }
  }
  long long satisfied = 0;
  long long evaluated = 0;
  for (const ConstraintDef& def : defs) {
    if (!observed.groups->HasKind(def.group)) {
      continue;  // no node set of this kind: nothing can satisfy it
    }
    const auto& sets = observed.groups->SetsOf(def.group);
    // Target count per node set, computed once per constraint.
    std::map<int, int> set_count;
    const auto count_in_set = [&](int set_index) {
      const auto it = set_count.find(set_index);
      if (it != set_count.end()) {
        return it->second;
      }
      int count = 0;
      for (medea::NodeId n : sets[static_cast<size_t>(set_index)]) {
        for (size_t i : on_node[n.value]) {
          count += HasAll(observed.containers[i].tags, def.target) ? 1 : 0;
        }
      }
      set_count.emplace(set_index, count);
      return count;
    };
    for (const auto& c : observed.containers) {
      if (!c.long_running || !HasAll(c.tags, def.subject)) {
        continue;
      }
      ++evaluated;
      const bool self_is_target = HasAll(c.tags, def.target);
      bool ok = false;
      for (int set_index : observed.groups->SetsContaining(def.group, medea::NodeId(c.node))) {
        const int others = count_in_set(set_index) - (self_is_target ? 1 : 0);
        if (others >= def.cmin && (def.cmax == ConstraintDef::kNoMax || others <= def.cmax)) {
          ok = true;
          break;
        }
      }
      satisfied += ok ? 1 : 0;
    }
  }
  if (subjects != nullptr) {
    *subjects = evaluated;
  }
  return satisfied;
}

}  // namespace placebench
