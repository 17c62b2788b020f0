#include "obs/registry.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace pgasq::obs {

Registry::Metric& Registry::find_or_create(const std::string& name,
                                           const Labels& labels, Kind kind) {
  for (auto& m : metrics_) {
    if (m.name == name && m.labels == labels) {
      PGASQ_CHECK(m.kind == kind, << "metric '" << name
                                  << "' re-registered with a different type");
      return m;
    }
  }
  Metric m;
  m.name = name;
  m.labels = labels;
  m.kind = kind;
  metrics_.push_back(std::move(m));
  return metrics_.back();
}

void Registry::set_counter(const std::string& name, std::uint64_t value,
                           Labels labels) {
  find_or_create(name, labels, Kind::kCounter).count = value;
}

void Registry::set_gauge(const std::string& name, double value, Labels labels) {
  find_or_create(name, labels, Kind::kGauge).value = value;
}

void Registry::merge_from(const Registry& other) {
  for (const Metric& src : other.metrics_) {
    find_or_create(src.name, src.labels, src.kind) = src;
  }
}

std::string Registry::to_text() const {
  std::string out;
  char buf[64];
  for (const auto& m : metrics_) {
    out += "  ";
    out += m.name;
    if (!m.labels.empty()) {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : m.labels) {
        if (!first) out += ',';
        first = false;
        out += k;
        out += '=';
        out += v;
      }
      out += '}';
    }
    out += " = ";
    switch (m.kind) {
      case Kind::kCounter:
        out += std::to_string(m.count);
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof buf, "%.3f", m.value);
        out += buf;
        break;
      case Kind::kHistogram:
        out += "histogram(total=" + std::to_string(m.total) + ")";
        break;
    }
    out += '\n';
  }
  return out;
}

Json Registry::to_json() const {
  Json arr = Json::array();
  for (const auto& m : metrics_) {
    Json j = Json::object();
    j.set("name", Json::string(m.name));
    if (!m.labels.empty()) {
      Json labels = Json::object();
      for (const auto& [k, v] : m.labels) labels.set(k, Json::string(v));
      j.set("labels", std::move(labels));
    }
    switch (m.kind) {
      case Kind::kCounter:
        j.set("type", Json::string("counter"));
        j.set("value", Json::number(m.count));
        break;
      case Kind::kGauge:
        j.set("type", Json::string("gauge"));
        j.set("value", Json::number(m.value));
        break;
      case Kind::kHistogram: {
        j.set("type", Json::string("histogram"));
        j.set("total", Json::number(m.total));
        Json buckets = Json::array();
        for (const std::uint64_t b : m.buckets) buckets.push(Json::number(b));
        j.set("buckets", std::move(buckets));
        break;
      }
    }
    arr.push(std::move(j));
  }
  return arr;
}

}  // namespace pgasq::obs
