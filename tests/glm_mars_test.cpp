// Tests for the GLM and MARS counter-model substrates.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/linear_model.hpp"
#include "ml/mars.hpp"
#include "ml/metrics.hpp"

namespace bf::ml {
namespace {

linalg::Matrix column_matrix(const std::vector<double>& x) {
  linalg::Matrix m(x.size(), 1);
  for (std::size_t i = 0; i < x.size(); ++i) m(i, 0) = x[i];
  return m;
}

// ---- GLM ----

TEST(Glm, ExactLinearFit) {
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 1; i <= 10; ++i) {
    xs.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  Glm glm;
  GlmParams params;
  params.degree = 1;
  params.log_terms = false;
  glm.fit(column_matrix(xs), y, params);
  EXPECT_NEAR(glm.residual_deviance(), 0.0, 1e-12);
  EXPECT_NEAR(glm.r_squared(), 1.0, 1e-12);
  const double probe[1] = {20.0};
  EXPECT_NEAR(glm.predict_row(probe, 1), 43.0, 1e-9);
}

TEST(Glm, QuadraticBasisFitsParabola) {
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = -5; i <= 5; ++i) {
    xs.push_back(i);
    y.push_back(1.0 - 2.0 * i + 0.5 * i * i);
  }
  Glm glm;
  GlmParams params;
  params.degree = 2;
  params.log_terms = false;
  glm.fit(column_matrix(xs), y, params);
  EXPECT_NEAR(glm.residual_deviance(), 0.0, 1e-9);
}

TEST(Glm, LogLinkFitsExponentialGrowth) {
  // y = 2 * 1.5^x: exactly log-linear.
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i <= 12; ++i) {
    xs.push_back(i);
    y.push_back(2.0 * std::pow(1.5, i));
  }
  Glm glm;
  GlmParams params;
  params.link = LinkFunction::kLog;
  params.degree = 1;
  params.log_terms = false;
  glm.fit(column_matrix(xs), y, params);
  const double probe[1] = {14.0};
  const double expected = 2.0 * std::pow(1.5, 14);
  EXPECT_NEAR(glm.predict_row(probe, 1) / expected, 1.0, 1e-6);
}

TEST(Glm, LogLinkRejectsNonPositive) {
  Glm glm;
  GlmParams params;
  params.link = LinkFunction::kLog;
  EXPECT_THROW(glm.fit(column_matrix({1, 2, 3, 4}), {1.0, 2.0, 0.0, 3.0},
                       params),
               Error);
}

TEST(Glm, DevianceDecomposition) {
  Rng rng(1);
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(i);
    y.push_back(2.0 * i + rng.normal(0.0, 3.0));
  }
  Glm glm;
  glm.fit(column_matrix(xs), y);
  EXPECT_GT(glm.null_deviance(), glm.residual_deviance());
  EXPECT_GT(glm.r_squared(), 0.9);
  EXPECT_LT(glm.r_squared(), 1.0);
}

TEST(Glm, InputValidation) {
  Glm glm;
  EXPECT_THROW(glm.fit(column_matrix({1}), {1.0}), Error);
  glm.fit(column_matrix({1, 2, 3, 4}), {1, 2, 3, 4});
  const double row[2] = {1.0, 2.0};
  EXPECT_THROW(glm.predict_row(row, 2), Error);  // arity mismatch

  // A record whose coefficients do not match its basis would make
  // predict_row read past them: one input of degree 2 with log terms
  // takes 4 coefficients (or none, unfitted).
  for (const char* record : {"bf_glm 2\n0 2 1\n1 1 5 0 0\n",
                             "bf_glm 2\n0 2 1\n1 5 1 2 3 4 5 0 0\n",
                             "bf_glm 2\n0 0 1\n1 1 5 0 0\n"}) {
    std::istringstream in(record);
    EXPECT_THROW(Glm::load(in), Error) << record;
  }
  std::istringstream ok("bf_glm 2\n0 2 1\n1 4 1 2 3 4 0 0\n");
  EXPECT_TRUE(Glm::load(ok).fitted());
}

// ---- MARS ----

TEST(Mars, FitsHingeFunctionExactly) {
  // y = 3 + 2*max(x - 5, 0): a single hinge.
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    xs.push_back(i);
    y.push_back(3.0 + 2.0 * std::max(i - 5.0, 0.0));
  }
  Mars mars;
  mars.fit(column_matrix(xs), y);
  EXPECT_GT(mars.r_squared(), 0.999);
  const double probe[1] = {10.0};
  EXPECT_NEAR(mars.predict_row(probe, 1), 13.0, 0.2);
  const double left[1] = {2.0};
  EXPECT_NEAR(mars.predict_row(left, 1), 3.0, 0.2);
}

TEST(Mars, BeatsLinearOnPiecewiseData) {
  // V-shaped response defeats a straight line.
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = -10; i <= 10; ++i) {
    xs.push_back(i);
    y.push_back(std::fabs(i));
  }
  const auto x = column_matrix(xs);
  Mars mars;
  mars.fit(x, y);
  Glm line;
  GlmParams lp;
  lp.degree = 1;
  lp.log_terms = false;
  line.fit(x, y, lp);
  const double mars_mse = mse(y, mars.predict(x));
  const double line_mse = mse(y, line.predict(x));
  EXPECT_LT(mars_mse, 0.05 * line_mse);
}

TEST(Mars, AdditiveTwoVariableRecovery) {
  Rng rng(2);
  linalg::Matrix x(80, 2);
  std::vector<double> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    x(i, 1) = rng.uniform(0, 10);
    y[i] = 2.0 * std::max(x(i, 0) - 4.0, 0.0) +
           1.0 * std::max(6.0 - x(i, 1), 0.0);
  }
  Mars mars;
  mars.fit(x, y);
  EXPECT_GT(mars.r_squared(), 0.98);
}

TEST(Mars, InteractionTerm) {
  // y = max(x0-3,0)*max(x1-3,0) requires a degree-2 term.
  Rng rng(3);
  linalg::Matrix x(100, 2);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(0, 8);
    x(i, 1) = rng.uniform(0, 8);
    y[i] = std::max(x(i, 0) - 3.0, 0.0) * std::max(x(i, 1) - 3.0, 0.0);
  }
  MarsParams additive;
  additive.max_degree = 1;
  Mars flat;
  flat.fit(x, y, additive);
  Mars inter;
  MarsParams ip;
  ip.max_degree = 2;
  inter.fit(x, y, ip);
  EXPECT_GT(inter.r_squared(), flat.r_squared());
  EXPECT_GT(inter.r_squared(), 0.95);
}

TEST(Mars, ConstantResponseInterceptOnly) {
  Mars mars;
  mars.fit(column_matrix({1, 2, 3, 4, 5}), std::vector<double>(5, 7.0));
  EXPECT_EQ(mars.num_terms(), 1u);
  const double probe[1] = {3.0};
  EXPECT_DOUBLE_EQ(mars.predict_row(probe, 1), 7.0);
}

TEST(Mars, ToStringMentionsHinges) {
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    xs.push_back(i);
    y.push_back(std::max(i - 10.0, 0.0));
  }
  Mars mars;
  mars.fit(column_matrix(xs), y);
  const std::string s = mars.to_string({"len"});
  EXPECT_NE(s.find("h("), std::string::npos);
  EXPECT_NE(s.find("len"), std::string::npos);
}

TEST(Mars, InputValidation) {
  Mars mars;
  EXPECT_THROW(mars.fit(column_matrix({1, 2, 3}), {1, 2, 3}), Error);
  const double row[1] = {1.0};
  EXPECT_THROW(mars.predict_row(row, 1), Error);  // unfitted
}

class MarsMaxTerms : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarsMaxTerms, RespectsTermBudget) {
  Rng rng(4);
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    xs.push_back(i);
    y.push_back(std::sin(i * 0.4) * 5.0 + rng.normal(0.0, 0.2));
  }
  MarsParams params;
  params.max_terms = GetParam();
  Mars mars;
  mars.fit(column_matrix(xs), y, params);
  EXPECT_LE(mars.num_terms(), GetParam());
  EXPECT_GE(mars.num_terms(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Budgets, MarsMaxTerms,
                         ::testing::Values(3u, 7u, 11u, 21u));

}  // namespace
}  // namespace bf::ml
