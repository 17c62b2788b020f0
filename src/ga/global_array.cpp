#include "ga/global_array.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pgasq::ga {

namespace {
/// Near-square factorization p = pr * pc with pr <= pc.
std::pair<int, int> process_grid(int p) {
  int pr = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (pr > 1 && p % pr != 0) --pr;
  return {pr, p / pr};
}

/// Ceil-div block bounds: unit `u` of `n` split across `parts`.
std::pair<std::int64_t, std::int64_t> block_range(std::int64_t n, int parts, int idx) {
  const std::int64_t base = n / parts;
  const std::int64_t extra = n % parts;
  // First `extra` parts get one more element.
  const std::int64_t lo =
      static_cast<std::int64_t>(idx) * base + std::min<std::int64_t>(idx, extra);
  const std::int64_t hi = lo + base + (idx < extra ? 1 : 0);
  return {lo, hi};
}
}  // namespace

Distribution2D::Distribution2D(int num_ranks, std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols) {
  PGASQ_CHECK(num_ranks >= 1 && rows >= 1 && cols >= 1);
  const auto [pr, pc] = process_grid(num_ranks);
  pr_ = pr;
  pc_ = pc;
}

Distribution2D::Distribution2D(std::vector<int> members, std::int64_t rows,
                               std::int64_t cols)
    : rows_(rows), cols_(cols), members_(std::move(members)) {
  PGASQ_CHECK(!members_.empty() && rows >= 1 && cols >= 1);
  const auto [pr, pc] = process_grid(static_cast<int>(members_.size()));
  pr_ = pr;
  pc_ = pc;
}

int Distribution2D::vrank_of(RankId world) const {
  if (members_.empty()) return world;
  const auto it = std::find(members_.begin(), members_.end(), world);
  PGASQ_CHECK(it != members_.end(), << "rank " << world << " is not a member of this "
                                    << "shrunk distribution");
  return static_cast<int>(it - members_.begin());
}

bool Distribution2D::is_member(RankId world) const {
  if (members_.empty()) return world >= 0 && world < pr_ * pc_;
  return std::find(members_.begin(), members_.end(), world) != members_.end();
}

std::pair<std::int64_t, std::int64_t> Distribution2D::row_range(int gr) const {
  PGASQ_CHECK(gr >= 0 && gr < pr_);
  return block_range(rows_, pr_, gr);
}

std::pair<std::int64_t, std::int64_t> Distribution2D::col_range(int gc) const {
  PGASQ_CHECK(gc >= 0 && gc < pc_);
  return block_range(cols_, pc_, gc);
}

int Distribution2D::grid_row_of(std::int64_t i) const {
  PGASQ_CHECK(i >= 0 && i < rows_);
  // Inverse of block_range: search is fine (pr_ is small), but compute
  // directly from the uneven-block arithmetic.
  const std::int64_t base = rows_ / pr_;
  const std::int64_t extra = rows_ % pr_;
  const std::int64_t fat = (base + 1) * extra;  // rows covered by fat blocks
  if (i < fat) return static_cast<int>(i / (base + 1));
  PGASQ_CHECK(base > 0, << "more grid rows than matrix rows");
  return static_cast<int>(extra + (i - fat) / base);
}

int Distribution2D::grid_col_of(std::int64_t j) const {
  PGASQ_CHECK(j >= 0 && j < cols_);
  const std::int64_t base = cols_ / pc_;
  const std::int64_t extra = cols_ % pc_;
  const std::int64_t fat = (base + 1) * extra;
  if (j < fat) return static_cast<int>(j / (base + 1));
  PGASQ_CHECK(base > 0, << "more grid cols than matrix cols");
  return static_cast<int>(extra + (j - fat) / base);
}

RankId Distribution2D::owner(std::int64_t i, std::int64_t j) const {
  return rank_of(grid_row_of(i), grid_col_of(j));
}

std::pair<std::int64_t, std::int64_t> Distribution2D::local_shape(RankId r) const {
  const int v = vrank_of(r);
  const int gr = v / pc_;
  const int gc = v % pc_;
  const auto [rlo, rhi] = row_range(gr);
  const auto [clo, chi] = col_range(gc);
  return {rhi - rlo, chi - clo};
}

GlobalArray::GlobalArray(Comm& comm, std::int64_t rows, std::int64_t cols)
    : GlobalArray(comm, rows, cols, std::vector<int>{}) {}

GlobalArray::GlobalArray(Comm& comm, std::int64_t rows, std::int64_t cols,
                         std::vector<int> members)
    : comm_(comm),
      dist_(members.empty() ? Distribution2D(comm.nprocs(), rows, cols)
                            : Distribution2D(std::move(members), rows, cols)) {
  const auto [lr, lc] = dist_.local_shape(comm.rank());
  local_rows_n_ = lr;
  local_cols_n_ = lc;
  // Every rank allocates the largest block so the collective slab size
  // is uniform (GA does the same with its mirrored max-block layout).
  std::size_t max_bytes = 0;
  for (int gr = 0; gr < dist_.grid_rows(); ++gr) {
    for (int gc = 0; gc < dist_.grid_cols(); ++gc) {
      const auto [brlo, brhi] = dist_.row_range(gr);
      const auto [bclo, bchi] = dist_.col_range(gc);
      max_bytes = std::max(max_bytes, static_cast<std::size_t>(brhi - brlo) *
                                          static_cast<std::size_t>(bchi - bclo) *
                                          sizeof(double));
    }
  }
  PGASQ_CHECK(max_bytes > 0, << "array smaller than the process grid");
  mem_ = &comm.malloc_collective(max_bytes);
}

double* GlobalArray::local_data() {
  return reinterpret_cast<double*>(mem_->local(comm_.rank()));
}

std::pair<std::int64_t, std::int64_t> GlobalArray::local_rows() const {
  return dist_.row_range(dist_.vrank_of(comm_.rank()) / dist_.grid_cols());
}

std::pair<std::int64_t, std::int64_t> GlobalArray::local_cols() const {
  return dist_.col_range(dist_.vrank_of(comm_.rank()) % dist_.grid_cols());
}

void GlobalArray::fill_local(double value) {
  fill_local([value](std::int64_t, std::int64_t) { return value; });
}

void GlobalArray::fill_local(
    const std::function<double(std::int64_t, std::int64_t)>& fn) {
  const auto [rlo, rhi] = local_rows();
  const auto [clo, chi] = local_cols();
  double* d = local_data();
  for (std::int64_t i = rlo; i < rhi; ++i) {
    for (std::int64_t j = clo; j < chi; ++j) {
      d[(i - rlo) * local_cols_n_ + (j - clo)] = fn(i, j);
    }
  }
}

void GlobalArray::sync() { comm_.barrier(); }

void GlobalArray::patch_op(Op op, double alpha, std::int64_t rlo, std::int64_t rhi,
                           std::int64_t clo, std::int64_t chi, double* buf,
                           std::int64_t ld, Handle& handle) {
  PGASQ_CHECK(rlo >= 0 && rlo < rhi && rhi <= rows(), << "rows [" << rlo << "," << rhi << ")");
  PGASQ_CHECK(clo >= 0 && clo < chi && chi <= cols(), << "cols [" << clo << "," << chi << ")");
  PGASQ_CHECK(ld >= chi - clo, << "leading dimension " << ld);
  const int gr_lo = dist_.grid_row_of(rlo);
  const int gr_hi = dist_.grid_row_of(rhi - 1);
  const int gc_lo = dist_.grid_col_of(clo);
  const int gc_hi = dist_.grid_col_of(chi - 1);
  for (int gr = gr_lo; gr <= gr_hi; ++gr) {
    const auto [brlo, brhi] = dist_.row_range(gr);
    const std::int64_t irlo = std::max(rlo, brlo);
    const std::int64_t irhi = std::min(rhi, brhi);
    for (int gc = gc_lo; gc <= gc_hi; ++gc) {
      const auto [bclo, bchi] = dist_.col_range(gc);
      const std::int64_t iclo = std::max(clo, bclo);
      const std::int64_t ichi = std::min(chi, bchi);
      const RankId owner = dist_.rank_of(gr, gc);
      const auto [orows, ocols] = dist_.local_shape(owner);
      PGASQ_CHECK(orows > 0 && ocols > 0);
      // Remote address of the intersection's first element.
      const std::size_t roff =
          (static_cast<std::size_t>(irlo - brlo) * static_cast<std::size_t>(ocols) +
           static_cast<std::size_t>(iclo - bclo)) *
          sizeof(double);
      const armci::RemotePtr remote = mem_->at(owner, roff);
      double* lbuf = buf + (irlo - rlo) * ld + (iclo - clo);
      const std::uint64_t nrows = static_cast<std::uint64_t>(irhi - irlo);
      const std::uint64_t row_bytes =
          static_cast<std::uint64_t>(ichi - iclo) * sizeof(double);
      const std::uint64_t remote_pitch =
          static_cast<std::uint64_t>(ocols) * sizeof(double);
      const std::uint64_t local_pitch = static_cast<std::uint64_t>(ld) * sizeof(double);
      switch (op) {
        case Op::kGet: {
          // Spec src side = remote for gets.
          armci::StridedSpec spec =
              nrows == 1 ? armci::StridedSpec::contiguous(row_bytes)
                         : armci::StridedSpec::rect2d(nrows, row_bytes, remote_pitch,
                                                      local_pitch);
          comm_.nb_get_strided(remote, lbuf, spec, handle);
          break;
        }
        case Op::kPut: {
          armci::StridedSpec spec =
              nrows == 1 ? armci::StridedSpec::contiguous(row_bytes)
                         : armci::StridedSpec::rect2d(nrows, row_bytes, local_pitch,
                                                      remote_pitch);
          comm_.nb_put_strided(lbuf, remote, spec, handle);
          break;
        }
        case Op::kAcc: {
          armci::StridedSpec spec =
              nrows == 1 ? armci::StridedSpec::contiguous(row_bytes)
                         : armci::StridedSpec::rect2d(nrows, row_bytes, local_pitch,
                                                      remote_pitch);
          comm_.nb_acc_strided(alpha, lbuf, remote, spec, handle);
          break;
        }
      }
    }
  }
}

void GlobalArray::nb_get(std::int64_t rlo, std::int64_t rhi, std::int64_t clo,
                         std::int64_t chi, double* buf, std::int64_t ld,
                         Handle& handle) {
  patch_op(Op::kGet, 0.0, rlo, rhi, clo, chi, buf, ld, handle);
}

void GlobalArray::nb_put(std::int64_t rlo, std::int64_t rhi, std::int64_t clo,
                         std::int64_t chi, const double* buf, std::int64_t ld,
                         Handle& handle) {
  patch_op(Op::kPut, 0.0, rlo, rhi, clo, chi, const_cast<double*>(buf), ld, handle);
}

void GlobalArray::nb_acc(double alpha, std::int64_t rlo, std::int64_t rhi,
                         std::int64_t clo, std::int64_t chi, const double* buf,
                         std::int64_t ld, Handle& handle) {
  patch_op(Op::kAcc, alpha, rlo, rhi, clo, chi, const_cast<double*>(buf), ld, handle);
}

void GlobalArray::get(std::int64_t rlo, std::int64_t rhi, std::int64_t clo,
                      std::int64_t chi, double* buf, std::int64_t ld) {
  Handle h;
  nb_get(rlo, rhi, clo, chi, buf, ld, h);
  comm_.wait(h);
}

void GlobalArray::put(std::int64_t rlo, std::int64_t rhi, std::int64_t clo,
                      std::int64_t chi, const double* buf, std::int64_t ld) {
  Handle h;
  nb_put(rlo, rhi, clo, chi, buf, ld, h);
  comm_.wait(h);
}

void GlobalArray::acc(double alpha, std::int64_t rlo, std::int64_t rhi,
                      std::int64_t clo, std::int64_t chi, const double* buf,
                      std::int64_t ld) {
  Handle h;
  nb_acc(alpha, rlo, rhi, clo, chi, buf, ld, h);
  comm_.wait(h);
}

armci::RemotePtr GlobalArray::element_ptr(std::int64_t i, std::int64_t j) const {
  PGASQ_CHECK(i >= 0 && i < rows() && j >= 0 && j < cols(),
              << "element (" << i << "," << j << ")");
  const RankId owner = dist_.owner(i, j);
  const int gr = dist_.vrank_of(owner) / dist_.grid_cols();
  const int gc = dist_.vrank_of(owner) % dist_.grid_cols();
  const std::int64_t rlo = dist_.row_range(gr).first;
  const std::int64_t clo = dist_.col_range(gc).first;
  const std::int64_t ocols = dist_.local_shape(owner).second;
  const std::size_t off =
      (static_cast<std::size_t>(i - rlo) * static_cast<std::size_t>(ocols) +
       static_cast<std::size_t>(j - clo)) *
      sizeof(double);
  return mem_->at(owner, off);
}

void GlobalArray::gather(const std::vector<ElementIndex>& idx, double* values) {
  PGASQ_CHECK(values != nullptr);
  if (idx.empty()) return;
  // Group indices by owner so each rank is hit with ONE vector get.
  std::vector<std::vector<std::size_t>> by_owner(
      static_cast<std::size_t>(comm_.nprocs()));
  for (std::size_t k = 0; k < idx.size(); ++k) {
    by_owner[static_cast<std::size_t>(dist_.owner(idx[k].i, idx[k].j))].push_back(k);
  }
  Handle h;
  for (int owner = 0; owner < comm_.nprocs(); ++owner) {
    const auto& ks = by_owner[static_cast<std::size_t>(owner)];
    if (ks.empty()) continue;
    Comm::VectorDescriptor d;
    d.segment_bytes = sizeof(double);
    for (const std::size_t k : ks) {
      d.local.push_back(reinterpret_cast<std::byte*>(values + k));
      d.remote.push_back(element_ptr(idx[k].i, idx[k].j).addr);
    }
    comm_.nb_get_v(owner, d, h);
  }
  comm_.wait(h);
}

void GlobalArray::scatter_impl(bool accumulate, double alpha,
                               const std::vector<ElementIndex>& idx,
                               const double* values) {
  PGASQ_CHECK(values != nullptr);
  if (idx.empty()) return;
  std::vector<std::vector<std::size_t>> by_owner(
      static_cast<std::size_t>(comm_.nprocs()));
  for (std::size_t k = 0; k < idx.size(); ++k) {
    by_owner[static_cast<std::size_t>(dist_.owner(idx[k].i, idx[k].j))].push_back(k);
  }
  Handle h;
  for (int owner = 0; owner < comm_.nprocs(); ++owner) {
    const auto& ks = by_owner[static_cast<std::size_t>(owner)];
    if (ks.empty()) continue;
    Comm::VectorDescriptor d;
    d.segment_bytes = sizeof(double);
    for (const std::size_t k : ks) {
      d.local.push_back(
          reinterpret_cast<std::byte*>(const_cast<double*>(values + k)));
      d.remote.push_back(element_ptr(idx[k].i, idx[k].j).addr);
    }
    if (accumulate) {
      comm_.nb_acc_v(alpha, owner, d, h);
    } else {
      comm_.nb_put_v(owner, d, h);
    }
  }
  comm_.wait(h);
}

void GlobalArray::scatter(const std::vector<ElementIndex>& idx,
                          const double* values) {
  scatter_impl(/*accumulate=*/false, 0.0, idx, values);
}

void GlobalArray::scatter_acc(double alpha, const std::vector<ElementIndex>& idx,
                              const double* values) {
  scatter_impl(/*accumulate=*/true, alpha, idx, values);
}

double* GlobalArray::staging(std::size_t n) {
  if (staging_.size() < n) staging_.resize(n);
  return staging_.data();
}

double GlobalArray::read_element(std::int64_t i, std::int64_t j) {
  double v = 0.0;
  get(i, i + 1, j, j + 1, &v, 1);
  return v;
}

SharedCounter::SharedCounter(Comm& comm, RankId home) : comm_(comm), home_(home) {
  PGASQ_CHECK(home >= 0 && home < comm.nprocs());
  mem_ = &comm.malloc_collective(sizeof(std::int64_t));
}

std::int64_t SharedCounter::next() {
  return comm_.fetch_add(mem_->at(home_), 1);
}

std::int64_t SharedCounter::read() {
  return comm_.fetch_add(mem_->at(home_), 0);
}

void SharedCounter::reset() {
  comm_.barrier();
  if (comm_.rank() == home_) {
    *reinterpret_cast<std::int64_t*>(mem_->local(home_)) = 0;
  }
  comm_.barrier();
}

}  // namespace pgasq::ga
