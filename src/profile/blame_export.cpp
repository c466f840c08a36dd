#include "profile/blame_export.h"

#include <algorithm>
#include <cmath>

#include "base/strings.h"

namespace es2 {

Json blame_to_json(const BlameBreakdown& b) {
  Json root = Json::object();
  root.set("schema", Json::string(kBlameSchema));
  root.set("journeys", Json::number(static_cast<double>(b.journeys)));
  root.set("complete", Json::number(static_cast<double>(b.complete)));
  root.set("total_ns", Json::number(static_cast<double>(b.total_ns)));

  Json e2e = Json::object();
  e2e.set("p50", Json::number(static_cast<double>(b.end_to_end.p50())));
  e2e.set("p99", Json::number(static_cast<double>(b.end_to_end.p99())));
  e2e.set("max", Json::number(static_cast<double>(b.end_to_end.max())));
  root.set("end_to_end", std::move(e2e));

  Json comps = Json::array();
  for (std::size_t c = 0; c < kBlameComponents; ++c) {
    const auto comp = static_cast<BlameComponent>(c);
    Json row = Json::object();
    row.set("name", Json::string(blame_component_name(comp)));
    row.set("kind",
            Json::string(blame_component_is_wait(comp) ? "wait" : "service"));
    row.set("ns", Json::number(static_cast<double>(b.component_ns[c])));
    row.set("fraction", Json::number(b.fraction(comp)));
    row.set("p50", Json::number(static_cast<double>(b.component_hist[c].p50())));
    row.set("p99", Json::number(static_cast<double>(b.component_hist[c].p99())));
    comps.push_back(std::move(row));
  }
  root.set("components", std::move(comps));

  Json groups = Json::array();
  for (const BlameGroup& g : b.groups) {
    Json row = Json::object();
    row.set("vm", Json::number(g.vm));
    row.set("queue", Json::number(g.queue));
    row.set("journeys", Json::number(static_cast<double>(g.journeys)));
    row.set("total_ns", Json::number(static_cast<double>(g.total)));
    Json by = Json::object();
    for (std::size_t c = 0; c < kBlameComponents; ++c) {
      by.set(blame_component_name(static_cast<BlameComponent>(c)),
             Json::number(static_cast<double>(g.ns[c])));
    }
    row.set("ns", std::move(by));
    groups.push_back(std::move(row));
  }
  root.set("groups", std::move(groups));

  root.set("ledger_threshold_ns",
           Json::number(static_cast<double>(b.ledger_threshold)));
  Json worst = Json::array();
  for (const JourneyBlame& j : b.worst) {
    Json row = Json::object();
    row.set("corr", Json::number(static_cast<double>(j.corr)));
    row.set("vm", Json::number(j.vm));
    row.set("queue", Json::number(j.queue));
    row.set("direction", Json::string(j.tx_origin ? "tx" : "rx"));
    row.set("start_ns", Json::number(static_cast<double>(j.start)));
    row.set("total_ns", Json::number(static_cast<double>(j.total())));
    Json segs = Json::object();
    for (std::size_t c = 0; c < kBlameComponents; ++c) {
      segs.set(blame_component_name(static_cast<BlameComponent>(c)),
               Json::number(static_cast<double>(j.ns[c])));
    }
    row.set("ns", std::move(segs));
    row.set("critical_path", Json::string(blame_critical_path(j)));
    worst.push_back(std::move(row));
  }
  root.set("worst", std::move(worst));
  return root;
}

std::string blame_to_json_text(const BlameBreakdown& b) {
  return blame_to_json(b).dump(2) + "\n";
}

std::string blame_to_collapsed(const BlameBreakdown& b) {
  std::vector<std::string> lines;
  for (const BlameGroup& g : b.groups) {
    for (std::size_t c = 0; c < kBlameComponents; ++c) {
      if (g.ns[c] == 0) continue;
      lines.push_back(
          format("sim;%s;vm%d:q%d %lld\n",
                 blame_component_name(static_cast<BlameComponent>(c)),
                 static_cast<int>(g.vm), static_cast<int>(g.queue),
                 static_cast<long long>(g.ns[c])));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

BlameSummary blame_summary(const BlameBreakdown& b) {
  BlameSummary s;
  s.journeys = b.journeys;
  s.complete = b.complete;
  s.total_ns = b.total_ns;
  s.end_to_end_p50 = b.end_to_end.p50();
  s.end_to_end_p99 = b.end_to_end.p99();
  for (std::size_t c = 0; c < kBlameComponents; ++c) {
    const auto comp = static_cast<BlameComponent>(c);
    BlameSummary::Component row;
    row.name = blame_component_name(comp);
    row.wait = blame_component_is_wait(comp);
    row.ns = b.component_ns[c];
    row.fraction = b.fraction(comp);
    row.p50 = b.component_hist[c].p50();
    row.p99 = b.component_hist[c].p99();
    s.components.push_back(std::move(row));
  }
  for (const JourneyBlame& j : b.worst) {
    s.worst.push_back(blame_critical_path(j));
  }
  return s;
}

bool blame_summary_from_json(const std::string& text, BlameSummary* out,
                             std::string* error) {
  Json root;
  std::string err;
  if (!Json::parse(text, &root, &err)) {
    if (error != nullptr) *error = err;
    return false;
  }
  if (root.string_or("schema", "") != kBlameSchema) {
    if (error != nullptr) {
      *error = "schema mismatch: expected " + std::string(kBlameSchema) +
               ", got '" + root.string_or("schema", "") + "'";
    }
    return false;
  }
  BlameSummary s;
  std::string bad;  // first integer field that failed its checked read
  auto integer = [&bad](const Json& obj, const char* key, std::int64_t* v) {
    if (!obj.integer_or<std::int64_t>(key, 0, v) && bad.empty()) bad = key;
  };
  integer(root, "journeys", &s.journeys);
  integer(root, "complete", &s.complete);
  integer(root, "total_ns", &s.total_ns);
  if (const Json* e2e = root.find("end_to_end"); e2e != nullptr) {
    integer(*e2e, "p50", &s.end_to_end_p50);
    integer(*e2e, "p99", &s.end_to_end_p99);
  }
  const Json* comps = root.find("components");
  if (comps == nullptr || !comps->is_array()) {
    if (error != nullptr) *error = "missing components array";
    return false;
  }
  for (std::size_t i = 0; i < comps->size(); ++i) {
    const Json& row = comps->at(i);
    BlameSummary::Component c;
    c.name = row.string_or("name", "?");
    c.wait = row.string_or("kind", "service") == "wait";
    integer(row, "ns", &c.ns);
    c.fraction = row.number_or("fraction", 0);
    integer(row, "p50", &c.p50);
    integer(row, "p99", &c.p99);
    s.components.push_back(std::move(c));
  }
  if (!bad.empty()) {
    if (error != nullptr) *error = "'" + bad + "' is not a 64-bit integer";
    return false;
  }
  if (const Json* worst = root.find("worst");
      worst != nullptr && worst->is_array()) {
    for (std::size_t i = 0; i < worst->size(); ++i) {
      s.worst.push_back(worst->at(i).string_or("critical_path", ""));
    }
  }
  *out = std::move(s);
  return true;
}

namespace {

std::string us_str(std::int64_t ns) {
  return format("%.2f", static_cast<double>(ns) / 1000.0);
}

}  // namespace

std::string render_blame_markdown(const BlameSummary& s) {
  std::string md;
  md += "# Latency budget (es2-blame-v1)\n\n";
  md += format("Journeys: %lld traced, %lld attributed. End-to-end p50 %s us, "
               "p99 %s us.\n\n",
               static_cast<long long>(s.journeys),
               static_cast<long long>(s.complete), us_str(s.end_to_end_p50).c_str(),
               us_str(s.end_to_end_p99).c_str());
  md += "| component | kind | total us | share | p50 us | p99 us |\n";
  md += "|---|---|---:|---:|---:|---:|\n";
  double share_sum = 0;
  for (const BlameSummary::Component& c : s.components) {
    share_sum += c.fraction;
    md += format("| %s | %s | %s | %.2f%% | %s | %s |\n", c.name.c_str(),
                 c.wait ? "wait" : "service", us_str(c.ns).c_str(),
                 c.fraction * 100.0, us_str(c.p50).c_str(),
                 us_str(c.p99).c_str());
  }
  md += format("| **total** |  | %s | %.2f%% |  |  |\n", us_str(s.total_ns).c_str(),
               share_sum * 100.0);
  if (!s.worst.empty()) {
    md += "\n## Worst journeys (beyond k x p99)\n\n";
    for (const std::string& line : s.worst) {
      md += "- `" + line + "`\n";
    }
  }
  return md;
}

BlameDiff diff_blame(const BlameSummary& a, const BlameSummary& b) {
  BlameDiff d;
  d.p99_a = a.end_to_end_p99;
  d.p99_b = b.end_to_end_p99;
  for (const BlameSummary::Component& ca : a.components) {
    BlameDiff::Row row;
    row.name = ca.name;
    row.fraction_a = ca.fraction;
    row.ns_a = ca.ns;
    for (const BlameSummary::Component& cb : b.components) {
      if (cb.name == ca.name) {
        row.fraction_b = cb.fraction;
        row.ns_b = cb.ns;
        break;
      }
    }
    const double delta = row.fraction_b - row.fraction_a;
    if (delta > d.regressed_delta) {
      d.regressed_delta = delta;
      d.regressed = row.name;
    }
    d.rows.push_back(std::move(row));
  }
  return d;
}

std::string render_blame_diff_markdown(const BlameDiff& d) {
  std::string md;
  md += "# Blame diff (B vs A)\n\n";
  md += format("End-to-end p99: %s us -> %s us\n\n", us_str(d.p99_a).c_str(),
               us_str(d.p99_b).c_str());
  md += "| component | share A | share B | delta | total A us | total B us |\n";
  md += "|---|---:|---:|---:|---:|---:|\n";
  for (const BlameDiff::Row& r : d.rows) {
    md += format("| %s | %.2f%% | %.2f%% | %+.2f%% | %s | %s |\n",
                 r.name.c_str(), r.fraction_a * 100.0, r.fraction_b * 100.0,
                 (r.fraction_b - r.fraction_a) * 100.0, us_str(r.ns_a).c_str(),
                 us_str(r.ns_b).c_str());
  }
  if (d.regressed.empty()) {
    md += "\nNo component's share grew.\n";
  } else {
    md += format("\nRegressed component: **%s** (+%.2f%% of journey total)\n",
                 d.regressed.c_str(), d.regressed_delta * 100.0);
  }
  return md;
}

}  // namespace es2
