// Field tables: each stats struct that reaches a report declares its
// metrics once, as a constexpr array of Field rows next to the struct.
// The helpers below derive the struct's merge, its registry export and
// its text-report rows from that array, so adding a metric takes one
// member and one row.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>

#include "obs/registry.hpp"
#include "util/table.hpp"
#include "util/time_types.hpp"

namespace pgasq::obs {

/// How a row is reported (unscoped, so tables read obs::kCount).
enum FieldKind {
  kCount,      ///< counter; integer text cell
  kTime,       ///< "_us" gauge; seconds in the text report
  kBytes,      ///< counter; human_bytes text cell
  kHistogram,  ///< merged and exported; never a text row
};

/// One metric of stats struct S. The kind must fit the member: count or
/// bytes on a uint64_t, time on a Time, histogram (unlabelled) on either
/// histogram type.
template <class S>
struct Field {
  const char* name;  ///< registry name; nullptr = merged, exported by hand
  FieldKind kind;
  std::variant<std::uint64_t S::*, Time S::*, Log2Histogram S::*,
               util::Histogram S::*>
      member;
  const char* label = nullptr;  ///< text-report label; none = JSON only
};

template <class S>
using Fields = std::type_identity_t<std::span<const Field<S>>>;

template <class V>
void merge_value(V& into, const V& from) {
  if constexpr (std::is_arithmetic_v<V>) into += from; else into.merge(from);
}

/// into += from, row by row (histograms merge bucket-wise).
template <class S>
void merge_fields(S& into, const S& from, Fields<S> fields) {
  for (const Field<S>& f : fields) {
    std::visit([&](auto m) { merge_value(into.*m, from.*m); }, f.member);
  }
}

/// One registry entry per named row, in table order, each with `labels`.
template <class S>
void export_fields(Registry& reg, const S& s, Fields<S> fields,
                   const Labels& labels = {}) {
  for (const Field<S>& f : fields) {
    if (f.name == nullptr) continue;
    std::visit(
        [&](auto m) {
          using V = std::remove_cvref_t<decltype(s.*m)>;
          if constexpr (std::is_same_v<V, Time>) {
            reg.set_gauge(f.name, to_us(s.*m), labels);
          } else if constexpr (std::is_same_v<V, std::uint64_t>) {
            reg.set_counter(f.name, s.*m, labels);
          } else {
            reg.set_histogram(f.name, s.*m, labels);
          }
        },
        f.member);
  }
}

/// One (label, value) row per labelled row, in table order; times print
/// in seconds with `precision` digits. `only` keeps one kind, for a
/// struct whose rows fill two text tables.
template <class S>
void append_rows(Table& t, const S& s, Fields<S> fields, int precision,
                 std::optional<FieldKind> only = std::nullopt) {
  for (const Field<S>& f : fields) {
    if (f.label == nullptr || (only && f.kind != *only)) continue;
    t.row().add(std::string(f.label));
    if (f.kind == kTime) {
      t.add(to_s(s.*std::get<Time S::*>(f.member)), precision);
    } else if (f.kind == kBytes) {
      t.add(human_bytes(s.*std::get<std::uint64_t S::*>(f.member)));
    } else {
      t.add(s.*std::get<std::uint64_t S::*>(f.member));
    }
  }
}

}  // namespace pgasq::obs
