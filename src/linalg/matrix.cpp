#include "linalg/matrix.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace bf::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    BF_CHECK_MSG(r.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(const std::vector<double>& v) {
  Matrix m(v.size(), 1);
  for (std::size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

void Matrix::index_error(std::size_t r, std::size_t c) const {
  BF_FAIL("matrix index (" << r << "," << c << ") out of " << rows_ << "x"
                           << cols_);
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = data_[r * cols_ + c];
    }
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  BF_CHECK_MSG(cols_ == rhs.rows_, "matmul shape mismatch: " << rows_ << "x"
                                                             << cols_ << " * "
                                                             << rhs.rows_
                                                             << "x"
                                                             << rhs.cols_);
  Matrix out(rows_, rhs.cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[i * cols_ + k];
      if (a == 0.0) continue;
      const double* rrow = rhs.row_ptr(k);
      double* orow = out.row_ptr(i);
      for (std::size_t j = 0; j < rhs.cols_; ++j) orow[j] += a * rrow[j];
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  BF_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  BF_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

std::vector<double> Matrix::apply(const std::vector<double>& x) const {
  BF_CHECK_MSG(x.size() == cols_, "apply: vector size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = row_ptr(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> Matrix::column_vec(std::size_t c) const {
  BF_CHECK(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::set_column(std::size_t c, const std::vector<double>& v) {
  BF_CHECK(c < cols_ && v.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = v[r];
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  BF_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      os << (c == 0 ? "" : " ") << data_[r * cols_ + c];
    }
    os << (r + 1 == rows_ ? "]" : "\n");
  }
  return os.str();
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  BF_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

}  // namespace bf::linalg
