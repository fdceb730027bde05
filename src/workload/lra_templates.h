// Copyright (c) Medea reproduction authors.
// LRA workload templates matching the paper's evaluation applications
// (§7.1): HBase instances (YCSB-driven), TensorFlow instances, Storm
// topologies and Memcached, each with its container shapes and the
// placement constraints the paper deploys them with.

#ifndef SRC_WORKLOAD_LRA_TEMPLATES_H_
#define SRC_WORKLOAD_LRA_TEMPLATES_H_

#include <string>
#include <vector>

#include "src/core/tags.h"
#include "src/schedulers/placement.h"

namespace medea {

// A template-produced LRA: the request plus the constraints to register.
// `app_constraints` are owned by the application; `shared_constraints` are
// cluster-wide (register once per cluster, with operator origin) — e.g. the
// inter-application "no more than two HBase workers per node" cardinality.
struct LraSpec {
  LraRequest request;
  std::vector<std::string> app_constraints;
  std::vector<std::string> shared_constraints;
};

// Registers `spec`'s constraints with `manager`: the shared texts as
// operator constraints, deduplicated by text
// (ConstraintManager::AddOperatorConstraint), then the application texts
// under the spec's app, each in order. A bad text is skipped and named in
// the returned status; the good ones are still registered.
Status RegisterLraConstraints(const LraSpec& spec, ConstraintManager& manager);

// Container shapes from §7.1: <2 GB, 1 CPU> workers, <4 GB, 1 CPU> chief,
// <1 GB, 1 CPU> for the rest.
inline constexpr Resource kWorkerDemand = Resource(2048, 1);
inline constexpr Resource kChiefDemand = Resource(4096, 1);
inline constexpr Resource kSmallDemand = Resource(1024, 1);

// HBase instance: `num_workers` region servers plus master, thrift server
// and secondary master. Constraints (§7.1): intra-app rack affinity for the
// workers; inter-app cardinality of at most `max_workers_per_node` region
// servers per node; node affinity master<->thrift; node anti-affinity
// master<->secondary.
LraSpec MakeHBaseInstance(ApplicationId app, TagPool& tags, int num_workers = 10,
                          bool with_constraints = true, int max_workers_per_node = 2);

// TensorFlow instance: `num_workers` workers, `num_ps` parameter servers and
// one chief. Constraints: intra-app rack affinity for workers; at most
// `max_workers_per_node` TF workers per node (inter-app).
LraSpec MakeTensorFlowInstance(ApplicationId app, TagPool& tags, int num_workers = 8,
                               int num_ps = 2, bool with_constraints = true,
                               int max_workers_per_node = 4);

// Storm topology with `num_supervisors` supervisor containers (§2.2's top-k
// hashtag pipeline uses five).
LraSpec MakeStormInstance(ApplicationId app, TagPool& tags, int num_supervisors = 5,
                          bool with_constraints = true);

// Single-container Memcached instance.
LraSpec MakeMemcachedInstance(ApplicationId app, TagPool& tags);

// Generic LRA of `n` identical containers tagged `tag` (plus the appID tag),
// used by the resilience and scale benches.
LraSpec MakeGenericLra(ApplicationId app, TagPool& tags, int n, const std::string& tag,
                       Resource demand = kSmallDemand);

}  // namespace medea

#endif  // SRC_WORKLOAD_LRA_TEMPLATES_H_
