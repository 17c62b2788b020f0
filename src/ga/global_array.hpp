// Minimal Global Arrays layer over the ARMCI runtime.
//
// Provides exactly what NWChem's SCF Fock build (Fig 10) needs from
// GA: block-distributed dense 2-D arrays of double with one-sided
// patch get/put/accumulate, plus the shared load-balance counter
// (NXTVAL). Patch operations translate to ARMCI strided transfers
// against each owning rank.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/comm.hpp"

namespace pgasq::ga {

using armci::Comm;
using armci::Handle;
using armci::RankId;

/// 2-D block distribution over a near-square process grid. The grid is
/// normally the full clique [0, p); after a fail-stop communicator
/// shrink it can instead cover an explicit member list of surviving
/// world ranks (grid positions — "virtual ranks" — map to members).
class Distribution2D {
 public:
  Distribution2D(int num_ranks, std::int64_t rows, std::int64_t cols);
  /// Member-list mode: the grid covers `members` (ascending world
  /// ranks) instead of the full clique.
  Distribution2D(std::vector<int> members, std::int64_t rows, std::int64_t cols);

  int grid_rows() const { return pr_; }
  int grid_cols() const { return pc_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  /// Row range [lo, hi) owned by grid row `gr`.
  std::pair<std::int64_t, std::int64_t> row_range(int gr) const;
  std::pair<std::int64_t, std::int64_t> col_range(int gc) const;

  RankId owner(std::int64_t i, std::int64_t j) const;
  int grid_row_of(std::int64_t i) const;
  int grid_col_of(std::int64_t j) const;
  /// World rank at grid cell (gr, gc).
  RankId rank_of(int gr, int gc) const {
    const int v = gr * pc_ + gc;
    return members_.empty() ? v : members_[static_cast<std::size_t>(v)];
  }
  /// Grid position ("virtual rank") of a participating world rank.
  int vrank_of(RankId world) const;
  /// True when `world` participates in the grid.
  bool is_member(RankId world) const;

  /// Local shape of rank r's block (may be 0 x n for ranks past the
  /// grid when p is not a perfect grid — we require p == pr*pc).
  std::pair<std::int64_t, std::int64_t> local_shape(RankId r) const;

 private:
  std::int64_t rows_, cols_;
  int pr_, pc_;
  /// Empty in full-clique mode; else ascending world ranks, one per
  /// grid position.
  std::vector<int> members_;
};

/// Block-distributed dense matrix of double.
class GlobalArray {
 public:
  /// Collective. Every rank must call with identical arguments.
  GlobalArray(Comm& comm, std::int64_t rows, std::int64_t cols);
  /// Member-mode collective (fail-stop communicator shrink): only the
  /// surviving `members` participate and hold blocks; every member
  /// must call with identical arguments.
  GlobalArray(Comm& comm, std::int64_t rows, std::int64_t cols,
              std::vector<int> members);

  std::int64_t rows() const { return dist_.rows(); }
  std::int64_t cols() const { return dist_.cols(); }
  const Distribution2D& distribution() const { return dist_; }

  // --- Patch operations: [rlo, rhi) x [clo, chi) ---------------------------
  // `buf` is row-major with leading dimension `ld` (elements per row).

  void get(std::int64_t rlo, std::int64_t rhi, std::int64_t clo, std::int64_t chi,
           double* buf, std::int64_t ld);
  void put(std::int64_t rlo, std::int64_t rhi, std::int64_t clo, std::int64_t chi,
           const double* buf, std::int64_t ld);
  void acc(double alpha, std::int64_t rlo, std::int64_t rhi, std::int64_t clo,
           std::int64_t chi, const double* buf, std::int64_t ld);

  void nb_get(std::int64_t rlo, std::int64_t rhi, std::int64_t clo, std::int64_t chi,
              double* buf, std::int64_t ld, Handle& handle);
  void nb_put(std::int64_t rlo, std::int64_t rhi, std::int64_t clo, std::int64_t chi,
              const double* buf, std::int64_t ld, Handle& handle);
  void nb_acc(double alpha, std::int64_t rlo, std::int64_t rhi, std::int64_t clo,
              std::int64_t chi, const double* buf, std::int64_t ld, Handle& handle);

  // --- Element gather/scatter (GA_Gather / GA_Scatter) ------------------------

  /// One (i, j) element coordinate.
  struct ElementIndex {
    std::int64_t i;
    std::int64_t j;
  };

  /// values[k] = A[idx[k]] — irregular one-sided reads batched into
  /// one I/O-vector operation per owning rank.
  void gather(const std::vector<ElementIndex>& idx, double* values);
  /// A[idx[k]] = values[k]. Indices must be unique within the call.
  void scatter(const std::vector<ElementIndex>& idx, const double* values);
  /// A[idx[k]] += alpha * values[k].
  void scatter_acc(double alpha, const std::vector<ElementIndex>& idx,
                   const double* values);

  // --- Whole-array helpers ----------------------------------------------------

  /// Sets every locally owned element (collective-ish: call on all
  /// ranks then sync()).
  void fill_local(double value);
  /// Fills local elements with fn(i, j).
  void fill_local(const std::function<double(std::int64_t, std::int64_t)>& fn);
  /// ARMCI barrier.
  void sync();

  /// Element read (1x1 get) — test/debug convenience.
  double read_element(std::int64_t i, std::int64_t j);

  // --- Local block ---------------------------------------------------------------

  double* local_data();
  std::pair<std::int64_t, std::int64_t> local_rows() const;
  std::pair<std::int64_t, std::int64_t> local_cols() const;
  std::int64_t local_ld() const { return local_cols_n_; }

  /// This rank's staging buffer of at least `n` doubles, for whole-array
  /// ops that fetch a remote patch into local memory (transpose_into).
  /// Sized on first use and kept for the array's lifetime: comm-visible
  /// buffers need stable addresses (DESIGN.md §5).
  double* staging(std::size_t n);

  Comm& comm() { return comm_; }

 private:
  enum class Op { kGet, kPut, kAcc };
  void patch_op(Op op, double alpha, std::int64_t rlo, std::int64_t rhi,
                std::int64_t clo, std::int64_t chi, double* buf, std::int64_t ld,
                Handle& handle);
  /// Remote address of element (i, j).
  armci::RemotePtr element_ptr(std::int64_t i, std::int64_t j) const;
  void scatter_impl(bool accumulate, double alpha,
                    const std::vector<ElementIndex>& idx, const double* values);

  Comm& comm_;
  Distribution2D dist_;
  armci::GlobalMem* mem_;
  std::int64_t local_rows_n_, local_cols_n_;
  std::vector<double> staging_;
};

/// The NXTVAL shared load-balance counter (hosted at rank `home`).
class SharedCounter {
 public:
  /// Collective.
  explicit SharedCounter(Comm& comm, RankId home = 0);

  /// Atomically fetches and increments (the nxtask primitive of
  /// Fig 10). This is the operation the asynchronous-thread design
  /// accelerates (S III-D, Fig 9).
  std::int64_t next();

  /// Collective reset to zero for the next SCF iteration.
  void reset();

  /// Current value (a fetch-and-add of 0).
  std::int64_t read();

  RankId home() const { return home_; }

 private:
  Comm& comm_;
  RankId home_;
  armci::GlobalMem* mem_;
};

}  // namespace pgasq::ga
