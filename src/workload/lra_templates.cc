#include "src/workload/lra_templates.h"

#include "src/common/strings.h"

namespace medea {
namespace {

std::vector<TagId> WithAppTag(TagPool& tags, ApplicationId app,
                              const std::vector<std::string>& names) {
  std::vector<TagId> ids = tags.InternAll(names);
  ids.push_back(tags.AppIdTag(app));
  return ids;
}

std::string AppTag(ApplicationId app) { return StrFormat("appID:%u", app.value); }

}  // namespace

Status RegisterLraConstraints(const LraSpec& spec, ConstraintManager& manager) {
  std::string bad;
  const auto note = [&bad](const std::string& text, const Status& status) {
    if (!status.ok()) {
      bad += (bad.empty() ? "" : "; ") + ("'" + text + "': " + status.message());
    }
  };
  for (const std::string& text : spec.shared_constraints) {
    note(text, manager.AddOperatorConstraint(text));
  }
  for (const std::string& text : spec.app_constraints) {
    note(text,
         manager.AddFromText(text, ConstraintOrigin::kApplication, spec.request.app).status());
  }
  return bad.empty() ? Status::Ok() : Status::InvalidArgument(bad);
}

LraSpec MakeHBaseInstance(ApplicationId app, TagPool& tags, int num_workers,
                          bool with_constraints, int max_workers_per_node) {
  LraSpec spec;
  spec.request.app = app;
  for (int i = 0; i < num_workers; ++i) {
    spec.request.containers.push_back(
        ContainerRequest{kWorkerDemand, WithAppTag(tags, app, {"hb", "hb_rs"})});
  }
  spec.request.containers.push_back(
      ContainerRequest{kSmallDemand, WithAppTag(tags, app, {"hb", "hb_m"})});
  spec.request.containers.push_back(
      ContainerRequest{kSmallDemand, WithAppTag(tags, app, {"hb", "hb_thrift"})});
  spec.request.containers.push_back(
      ContainerRequest{kSmallDemand, WithAppTag(tags, app, {"hb", "hb_sec"})});
  if (with_constraints) {
    const std::string a = AppTag(app);
    // Workers of the same instance on the same rack (intra-app affinity).
    spec.app_constraints.push_back(
        StrFormat("{%s & hb_rs, {%s & hb_rs, 1, inf}, rack}", a.c_str(), a.c_str()));
    // Master and thrift server collocated; master and secondary separated.
    spec.app_constraints.push_back(
        StrFormat("{%s & hb_m, {%s & hb_thrift, 1, inf}, node}", a.c_str(), a.c_str()));
    spec.app_constraints.push_back(
        StrFormat("{%s & hb_m, {%s & hb_sec, 0, 0}, node}", a.c_str(), a.c_str()));
    // Inter-app: at most max_workers_per_node region servers per node.
    spec.shared_constraints.push_back(
        StrFormat("{hb_rs, {hb_rs, 0, %d}, node}", max_workers_per_node));
  }
  return spec;
}

LraSpec MakeTensorFlowInstance(ApplicationId app, TagPool& tags, int num_workers, int num_ps,
                               bool with_constraints, int max_workers_per_node) {
  LraSpec spec;
  spec.request.app = app;
  for (int i = 0; i < num_workers; ++i) {
    spec.request.containers.push_back(
        ContainerRequest{kWorkerDemand, WithAppTag(tags, app, {"tf", "tf_w"})});
  }
  for (int i = 0; i < num_ps; ++i) {
    spec.request.containers.push_back(
        ContainerRequest{kSmallDemand, WithAppTag(tags, app, {"tf", "tf_ps"})});
  }
  spec.request.containers.push_back(
      ContainerRequest{kChiefDemand, WithAppTag(tags, app, {"tf", "tf_chief"})});
  if (with_constraints) {
    const std::string a = AppTag(app);
    spec.app_constraints.push_back(
        StrFormat("{%s & tf_w, {%s & tf_w, 1, inf}, rack}", a.c_str(), a.c_str()));
    spec.shared_constraints.push_back(
        StrFormat("{tf_w, {tf_w, 0, %d}, node}", max_workers_per_node));
  }
  return spec;
}

LraSpec MakeStormInstance(ApplicationId app, TagPool& tags, int num_supervisors,
                          bool with_constraints) {
  LraSpec spec;
  spec.request.app = app;
  for (int i = 0; i < num_supervisors; ++i) {
    spec.request.containers.push_back(
        ContainerRequest{kSmallDemand, WithAppTag(tags, app, {"storm", "storm_sup"})});
  }
  if (with_constraints) {
    const std::string a = AppTag(app);
    // §2.2 intra-application affinity: supervisors collocated on one node.
    // cmin = num_supervisors - 1 pins *all* of them together (cmin = 1 would
    // also be satisfied by two separate pairs).
    spec.app_constraints.push_back(StrFormat("{%s & storm_sup, {%s & storm_sup, %d, inf}, node}",
                                             a.c_str(), a.c_str(), num_supervisors - 1));
  }
  return spec;
}

LraSpec MakeMemcachedInstance(ApplicationId app, TagPool& tags) {
  LraSpec spec;
  spec.request.app = app;
  spec.request.containers.push_back(
      ContainerRequest{kWorkerDemand, WithAppTag(tags, app, {"mem"})});
  return spec;
}

LraSpec MakeGenericLra(ApplicationId app, TagPool& tags, int n, const std::string& tag,
                       Resource demand) {
  LraSpec spec;
  spec.request.app = app;
  for (int i = 0; i < n; ++i) {
    spec.request.containers.push_back(ContainerRequest{demand, WithAppTag(tags, app, {tag})});
  }
  return spec;
}

}  // namespace medea
