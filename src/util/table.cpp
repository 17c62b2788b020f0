#include "util/table.hpp"

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "util/error.hpp"

namespace pgasq {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  PGASQ_CHECK(!headers_.empty());
}

Table& Table::row() {
  PGASQ_CHECK(rows_.empty() || rows_.back().size() == headers_.size(),
              << "previous row incomplete: " << rows_.back().size() << " of "
              << headers_.size() << " cells");
  rows_.emplace_back();
  return *this;
}

Table& Table::add(const std::string& v) {
  PGASQ_CHECK(!rows_.empty(), << "call row() before add()");
  PGASQ_CHECK(rows_.back().size() < headers_.size(), << "row overflow");
  rows_.back().push_back(v);
  return *this;
}

Table& Table::add(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return add(std::string(buf));
}

Table& Table::add(long long v) { return add(std::to_string(v)); }
Table& Table::add(unsigned long long v) { return add(std::to_string(v)); }

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      os << (c ? "  " : "");
      os << std::string(width[c] - v.size(), ' ') << v;
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      const std::string& v = cells[c];
      if (v.find_first_of(",\"\n") != std::string::npos) {
        os << '"';
        for (const char ch : v) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << v;
      }
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void Table::print() const { std::cout << to_string() << std::flush; }

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0) {
    return std::to_string(bytes >> 20) + "M";
  }
  if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0) {
    return std::to_string(bytes >> 10) + "K";
  }
  return std::to_string(bytes);
}

std::string human_bytes(std::uint64_t b) {
  char buf[32];
  if (b >= (1ull << 30)) {
    std::snprintf(buf, sizeof buf, "%.2f GiB", static_cast<double>(b) / (1ull << 30));
  } else if (b >= (1ull << 20)) {
    std::snprintf(buf, sizeof buf, "%.2f MiB", static_cast<double>(b) / (1ull << 20));
  } else if (b >= (1ull << 10)) {
    std::snprintf(buf, sizeof buf, "%.2f KiB", static_cast<double>(b) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(b));
  }
  return buf;
}

}  // namespace pgasq
