// Column-aligned plain-text table printer used by the benchmark
// harness to emit paper-style rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pgasq {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; values are appended with add().
  Table& row();
  Table& add(const std::string& v);
  Table& add(double v, int precision = 2);
  Table& add(long long v);
  Table& add(unsigned long long v);
  Table& add(int v) { return add(static_cast<long long>(v)); }
  Table& add(long v) { return add(static_cast<long long>(v)); }
  Table& add(std::size_t v) { return add(static_cast<unsigned long long>(v)); }

  /// Renders the table with a header rule; every column is padded to
  /// its widest cell.
  std::string to_string() const;
  /// Renders as RFC-4180-ish CSV (quotes cells containing comma/quote)
  /// for plotting pipelines.
  std::string to_csv() const;
  /// Prints to stdout.
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a byte count as "16", "2K", "1M" the way the paper labels
/// message-size axes.
std::string format_bytes(std::uint64_t bytes);

/// Formats a byte count as "512 B", "1.50 KiB", "2.00 MiB", "3.00 GiB"
/// the way the communication report prints volumes.
std::string human_bytes(std::uint64_t bytes);

}  // namespace pgasq
