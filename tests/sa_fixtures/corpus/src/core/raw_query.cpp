// Fixture: a seeded guarded-predict violation — a per-row model query
// inside the core layer, which must go through the guard layer's
// supervised entry points.
struct Model {
  double predict_row(const double* x, int n) const;
};

double query(const Model& m, const double* x, int n) {
  return m.predict_row(x, n);  // seeded: guarded-predict
}
