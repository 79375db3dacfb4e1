// QueryBuilder — fluent construction of QuerySpec.
//
// Raw QuerySpec struct fills scatter field defaults and validation across
// every call site; the builder makes the common path read in query order
// (selector → range → align → transform → aggregate) and funnels
// everything through QuerySpec::validate() at build() time. The builder is
// sugar only: build() returns a plain QuerySpec, so a built spec and a
// hand-filled spec with the same fields canonicalize to the same
// canonical_key() and share one result cache entry. QuerySpec itself stays
// the wire type (server/protocol.h encode_query) — the builder never
// appears on the wire.
//
//   const qry::QuerySpec spec = qry::QueryBuilder()
//                                   .select("rack*/cpu_util")
//                                   .range(0.0, 60.0)
//                                   .align(0.5)
//                                   .transform(qry::Transform::kRate)
//                                   .aggregate(qry::Aggregation::kP95)
//                                   .build();
#pragma once

#include <utility>

#include "query/spec.h"

namespace nyqmon::qry {

class QueryBuilder {
 public:
  /// Glob over stream IDs, e.g. "rack3-*/temperature" (query/selector.h).
  QueryBuilder& select(std::string selector) {
    spec_.selector = std::move(selector);
    return *this;
  }

  /// Half-open query range [t_begin, t_end), seconds.
  QueryBuilder& range(double t_begin, double t_end) {
    spec_.t_begin = t_begin;
    spec_.t_end = t_end;
    return *this;
  }

  /// Output alignment grid step (seconds); every matched stream is
  /// reconstructed onto t_begin + i * step_s.
  QueryBuilder& align(double step_s) {
    spec_.step_s = step_s;
    return *this;
  }

  /// Per-stream transform after alignment (default Transform::kRaw).
  QueryBuilder& transform(Transform t) {
    spec_.transform = t;
    return *this;
  }

  /// Cross-stream aggregation (default Aggregation::kNone).
  QueryBuilder& aggregate(Aggregation a) {
    spec_.aggregate = a;
    return *this;
  }

  /// Validate and return the spec. Throws std::invalid_argument exactly
  /// like QuerySpec::validate() on a malformed spec.
  QuerySpec build() const {
    spec_.validate();
    return spec_;
  }

 private:
  QuerySpec spec_;
};

}  // namespace nyqmon::qry
