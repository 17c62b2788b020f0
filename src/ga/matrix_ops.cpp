#include "ga/matrix_ops.hpp"

#include "ga/collectives.hpp"
#include "util/error.hpp"

namespace pgasq::ga {

namespace {
void check_same_shape(const GlobalArray& a, const GlobalArray& b) {
  PGASQ_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
              << b.rows() << "x" << b.cols());
}

/// Charges the local arithmetic for n element operations.
void charge_flops(Comm& comm, std::int64_t n) {
  comm.compute(from_ns(0.6 * static_cast<double>(n)));
}
}  // namespace

void copy(GlobalArray& src, GlobalArray& dst) {
  check_same_shape(src, dst);
  const auto [rlo, rhi] = src.local_rows();
  const auto [clo, chi] = src.local_cols();
  const double* s = src.local_data();
  double* d = dst.local_data();
  for (std::int64_t i = 0; i < (rhi - rlo) * src.local_ld(); ++i) d[i] = s[i];
  charge_flops(src.comm(), (rhi - rlo) * (chi - clo));
  src.comm().barrier();
}

void scale(GlobalArray& a, double alpha) {
  const auto [rlo, rhi] = a.local_rows();
  const auto [clo, chi] = a.local_cols();
  double* d = a.local_data();
  for (std::int64_t i = 0; i < (rhi - rlo) * a.local_ld(); ++i) d[i] *= alpha;
  charge_flops(a.comm(), (rhi - rlo) * (chi - clo));
  a.comm().barrier();
}

void add(double alpha, GlobalArray& a, double beta, GlobalArray& b,
         GlobalArray& dst) {
  check_same_shape(a, b);
  check_same_shape(a, dst);
  const auto [rlo, rhi] = a.local_rows();
  const auto [clo, chi] = a.local_cols();
  const double* da = a.local_data();
  const double* db = b.local_data();
  double* dd = dst.local_data();
  for (std::int64_t i = 0; i < (rhi - rlo) * a.local_ld(); ++i) {
    dd[i] = alpha * da[i] + beta * db[i];
  }
  charge_flops(a.comm(), 2 * (rhi - rlo) * (chi - clo));
  a.comm().barrier();
}

void transpose_into(GlobalArray& src, GlobalArray& dst) {
  PGASQ_CHECK(src.rows() == dst.cols() && src.cols() == dst.rows(),
              << "transpose shape mismatch");
  // Settle everyone's local writes before reading remote blocks.
  src.comm().barrier();
  // Every rank fetches the mirror patch of ITS dst block one-sidedly,
  // then transposes locally — the canonical GA_Transpose structure.
  const auto [rlo, rhi] = dst.local_rows();
  const auto [clo, chi] = dst.local_cols();
  const std::int64_t nr = rhi - rlo;
  const std::int64_t nc = chi - clo;
  if (nr > 0 && nc > 0) {
    double* mirror = dst.staging(static_cast<std::size_t>(nr * nc));
    // dst[i][j] = src[j][i]: need src patch [clo,chi) x [rlo,rhi).
    src.get(clo, chi, rlo, rhi, mirror, nr);
    double* d = dst.local_data();
    for (std::int64_t i = 0; i < nr; ++i) {
      for (std::int64_t j = 0; j < nc; ++j) {
        d[i * dst.local_ld() + j] = mirror[j * nr + i];
      }
    }
    charge_flops(dst.comm(), nr * nc);
  }
  dst.comm().barrier();
}

void symmetrize(GlobalArray& a, GlobalArray& scratch) {
  PGASQ_CHECK(a.rows() == a.cols(), << "symmetrize needs a square matrix");
  check_same_shape(a, scratch);
  transpose_into(a, scratch);
  add(0.5, a, 0.5, scratch, a);
}

double norm2(GlobalArray& a) { return dot(a, a); }

}  // namespace pgasq::ga
