#include "core/report.h"

#include <cmath>
#include <cstdio>

#include "gnn/common.h"

namespace paragraph::core {

namespace {

using dataset::Sample;
using dataset::SuiteDataset;
using eval::QualityAccumulator;

void add_edge_type_buckets(QualityAccumulator& q, std::uint64_t mask, float truth, float pred) {
  const auto& registry = graph::edge_type_registry();
  for (std::size_t e = 0; e < registry.size() && e < 64; ++e) {
    if (mask & (std::uint64_t{1} << e)) q.add(eval::kDimEdgeType, registry[e].name, truth, pred);
  }
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

double num_or(const obs::JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

}  // namespace

eval::QualityAccumulator collect_quality(const CapEnsemble& ensemble, const SuiteDataset& ds,
                                         const std::vector<Sample>& samples,
                                         EvalResult* out_result) {
  std::vector<MemberAttribution> attributions;
  EvalResult result = ensemble.evaluate(ds, samples, &attributions);
  const auto& max_vs = ensemble.max_vs_ff();

  QualityAccumulator q;
  for (std::size_t ci = 0; ci < samples.size(); ++ci) {
    const Sample& s = samples[ci];
    const CircuitPrediction& cp = result.circuits[ci];
    const MemberAttribution& attr = attributions[ci];
    const std::vector<std::uint64_t> masks =
        gnn::incident_edge_type_masks(s.graph, graph::NodeType::kNet);
    // Ensemble evaluation covers every net node in order: position i is
    // net node i.
    for (std::size_t i = 0; i < cp.truth.size(); ++i) {
      const float t = cp.truth[i];
      const float p = cp.pred[i];
      q.count_pair();
      q.add(eval::kDimTarget, dataset::target_name(dataset::TargetKind::kCap), t, p);
      q.add(eval::kDimDecade, QualityAccumulator::cap_decade_key(t), t, p);
      if (i < attr.member.size()) {
        const int m = attr.member[i];
        q.add(eval::kDimMember, "m" + std::to_string(m), t, p);
        const double lo = m == 0 ? 0.0 : max_vs[static_cast<std::size_t>(m) - 1];
        const double hi = max_vs[static_cast<std::size_t>(m)];
        q.add_calibration(m, lo, hi, t, p);
      }
      if (i < masks.size()) add_edge_type_buckets(q, masks[i], t, p);
      q.note_net(s.name, dataset::node_name(s, graph::NodeType::kNet, i), t, p);
    }
    for (std::size_t k = 0; k < attr.pairs.size(); ++k)
      q.add_overlap_stats(static_cast<int>(k), attr.pairs[k].checked,
                          attr.pairs[k].disagreements);
  }
  if (out_result != nullptr) *out_result = std::move(result);
  return q;
}

eval::QualityAccumulator collect_quality(const GnnPredictor& model, const SuiteDataset& ds,
                                         const std::vector<Sample>& samples,
                                         EvalResult* out_result) {
  EvalResult result = model.evaluate(ds, samples);
  const auto& types = dataset::target_node_types(model.config().target);
  const char* target = dataset::target_name(model.config().target);
  const bool is_cap = model.config().target == dataset::TargetKind::kCap;

  QualityAccumulator q;
  for (std::size_t ci = 0; ci < samples.size(); ++ci) {
    const Sample& s = samples[ci];
    const CircuitPrediction& cp = result.circuits[ci];
    std::vector<std::vector<std::uint64_t>> masks(types.size());
    for (std::size_t slot = 0; slot < types.size(); ++slot)
      masks[slot] = gnn::incident_edge_type_masks(s.graph, types[slot]);
    for (std::size_t i = 0; i < cp.truth.size(); ++i) {
      const float t = cp.truth[i];
      const float p = cp.pred[i];
      q.count_pair();
      q.add(eval::kDimTarget, target, t, p);
      if (is_cap) q.add(eval::kDimDecade, QualityAccumulator::cap_decade_key(t), t, p);
      if (i < cp.type_slot.size()) {
        const auto slot = static_cast<std::size_t>(cp.type_slot[i]);
        const auto local = static_cast<std::size_t>(cp.node_index[i]);
        if (slot < masks.size() && local < masks[slot].size())
          add_edge_type_buckets(q, masks[slot][local], t, p);
        q.note_net(s.name, dataset::node_name(s, types[slot], local), t, p);
      }
    }
  }
  if (out_result != nullptr) *out_result = std::move(result);
  return q;
}

obs::JsonValue quality_report_json(const eval::QualityAccumulator& quality,
                                   const obs::DriftReport* drift, const std::string& model_path,
                                   const std::string& target_name, std::size_t num_circuits) {
  obs::JsonValue root = quality.to_json();
  obs::JsonValue meta = obs::JsonValue::object();
  meta.set("model", model_path);
  meta.set("target", target_name);
  meta.set("circuits", num_circuits);
  root.set("meta", std::move(meta));
  if (drift != nullptr) root.set("drift", drift->to_json());
  return root;
}

std::string render_quality_markdown(const obs::JsonValue& report, const obs::JsonValue* prior) {
  std::string md;
  md += "# ParaGraph quality report\n\n";
  if (const obs::JsonValue* meta = report.find("meta")) {
    if (const auto* m = meta->find("model")) md += "- model: `" + m->as_string() + "`\n";
    if (const auto* t = meta->find("target")) md += "- target: " + t->as_string() + "\n";
    if (const auto* c = meta->find("circuits"))
      md += "- circuits: " + std::to_string(c->as_int()) + "\n";
  }
  if (const obs::JsonValue* pairs = report.find("pairs"))
    md += "- prediction pairs: " + std::to_string(pairs->as_int()) + "\n";
  md += "\n";

  const obs::JsonValue* dims = report.find("dimensions");
  const auto render_dim = [&](const char* dim, const char* title, const char* key_header) {
    const obs::JsonValue* d = dims != nullptr ? dims->find(dim) : nullptr;
    if (d == nullptr || d->size() == 0) return;
    md += std::string("## ") + title + "\n\n";
    md += std::string("| ") + key_header + " | count | R2 | MAPE% | MAE |\n";
    md += "|---|---|---|---|---|\n";
    for (const auto& [key, m] : d->items()) {
      md += "| " + key + " | " + std::to_string(m.at("count").as_int()) + " | " +
            fmt(m.at("r2").as_double()) + " | " + fmt(m.at("mape").as_double()) + " | " +
            fmt(m.at("mae").as_double()) + " |\n";
    }
    md += "\n";
  };
  render_dim(eval::kDimDecade, "Accuracy per cap decade (fF)", "decade");
  render_dim(eval::kDimTarget, "Accuracy per target", "target");
  render_dim(eval::kDimMember, "Accuracy per answering ensemble member", "member");
  render_dim(eval::kDimEdgeType, "Accuracy per edge-type context", "edge type");

  if (const obs::JsonValue* calib = report.find("calibration"); calib != nullptr && calib->size() > 0) {
    md += "## Calibration: member interval vs realised answers\n\n";
    md += "| member | interval (fF] | answered | truth in interval | MAPE% |\n";
    md += "|---|---|---|---|---|\n";
    for (const obs::JsonValue& r : calib->elements()) {
      md += "| m" + std::to_string(r.at("member").as_int()) + " | (" +
            fmt(r.at("interval_lo_ff").as_double()) + ", " +
            fmt(r.at("interval_hi_ff").as_double()) + "] | " +
            std::to_string(r.at("count").as_int()) + " | " +
            fmt(r.at("in_interval_frac").as_double() * 100.0) + "% | " +
            fmt(r.at("metrics").at("mape").as_double()) + " |\n";
    }
    md += "\n";
  }

  if (const obs::JsonValue* ov = report.find("member_overlap"); ov != nullptr && ov->size() > 0) {
    md += "## Adjacent-member boundary disagreement\n\n";
    md += "| boundary | nets checked | disagreements | rate |\n";
    md += "|---|---|---|---|\n";
    for (const obs::JsonValue& r : ov->elements()) {
      const std::int64_t k = r.at("lower_member").as_int();
      md += "| m" + std::to_string(k) + "/m" + std::to_string(k + 1) + " | " +
            std::to_string(r.at("checked").as_int()) + " | " +
            std::to_string(r.at("disagreements").as_int()) + " | " +
            fmt(r.at("disagreement_frac").as_double() * 100.0) + "% |\n";
    }
    md += "\n";
  }

  if (const obs::JsonValue* worst = report.find("worst_nets"); worst != nullptr && worst->size() > 0) {
    md += "## Worst nets\n\n";
    md += "| circuit | net | truth | pred | rel err |\n";
    md += "|---|---|---|---|---|\n";
    for (const obs::JsonValue& w : worst->elements()) {
      md += "| " + w.at("circuit").as_string() + " | " + w.at("net").as_string() + " | " +
            fmt(w.at("truth").as_double()) + " | " + fmt(w.at("pred").as_double()) + " | " +
            fmt(w.at("rel_err").as_double()) + " |\n";
    }
    md += "\n";
  }

  if (const obs::JsonValue* drift = report.find("drift")) {
    md += "## Input drift vs training reference\n\n";
    md += "- max PSI: " + fmt(drift->at("max_psi").as_double());
    if (const auto* f = drift->find("max_feature"); f != nullptr && !f->as_string().empty())
      md += " (" + f->as_string() + ")";
    md += "\n\n";
    if (const obs::JsonValue* feats = drift->find("features"); feats != nullptr && feats->size() > 0) {
      md += "| feature | PSI | ref n | live n |\n";
      md += "|---|---|---|---|\n";
      for (const obs::JsonValue& f : feats->elements()) {
        md += "| " + f.at("feature").as_string() + " | " + fmt(f.at("psi").as_double()) + " | " +
              std::to_string(f.at("ref_count").as_int()) + " | " +
              std::to_string(f.at("live_count").as_int()) + " |\n";
      }
      md += "\n";
    }
  } else {
    md += "## Input drift\n\nNo drift reference (model predates format v5).\n\n";
  }

  // Prior comparison: match quality.<dim>.<key>.r2 gauges from a previous
  // run's --metrics-out dump against this report's buckets.
  if (prior != nullptr && dims != nullptr) {
    const obs::JsonValue* gauges = prior->find("gauges");
    if (gauges != nullptr && gauges->size() > 0) {
      std::string rows;
      for (const auto& [dim_name, dim] : dims->items()) {
        for (const auto& [key, m] : dim.items()) {
          const obs::JsonValue* prev = gauges->find("quality." + dim_name + "." + key + ".r2");
          if (prev == nullptr) continue;
          const double now = m.at("r2").as_double();
          const double then = num_or(prev, 0.0);
          rows += "| " + dim_name + "." + key + " | " + fmt(then) + " | " + fmt(now) + " | " +
                  fmt(now - then) + " |\n";
        }
      }
      if (!rows.empty()) {
        md += "## R2 vs prior run\n\n| bucket | prior | now | delta |\n|---|---|---|---|\n";
        md += rows;
        md += "\n";
      }
    }
  }
  return md;
}

}  // namespace paragraph::core
