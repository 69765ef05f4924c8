#include "core/state.hpp"

#include <utility>

#include "core/forcing.hpp"

namespace licomk::core {

namespace {
halo::BlockField3D f3(const char* label, const LocalGrid& g) {
  return halo::BlockField3D(label, g.extent(), g.nz());
}
halo::BlockField2D f2(const char* label, const LocalGrid& g) {
  return halo::BlockField2D(label, g.extent());
}
}  // namespace

OceanState::OceanState(const LocalGrid& g)
    : u_old(f3("u_old", g)), u_cur(f3("u_cur", g)), u_new(f3("u_new", g)),
      v_old(f3("v_old", g)), v_cur(f3("v_cur", g)), v_new(f3("v_new", g)),
      t_old(f3("t_old", g)), t_cur(f3("t_cur", g)), t_new(f3("t_new", g)),
      s_old(f3("s_old", g)), s_cur(f3("s_cur", g)), s_new(f3("s_new", g)),
      eta_old(f2("eta_old", g)), eta_cur(f2("eta_cur", g)), eta_new(f2("eta_new", g)),
      ubar_old(f2("ubar_old", g)), ubar_cur(f2("ubar_cur", g)), ubar_new(f2("ubar_new", g)),
      vbar_old(f2("vbar_old", g)), vbar_cur(f2("vbar_cur", g)), vbar_new(f2("vbar_new", g)),
      rho(f3("rho", g)), pressure(f3("pressure", g)),
      kappa_m(f3("kappa_m", g)), kappa_t(f3("kappa_t", g)),
      fu_tend(f3("fu_tend", g)), fv_tend(f3("fv_tend", g)) {
  // Analytic initial stratification everywhere (land values are masked by
  // kernels but kept physical so diagnostics never meet garbage).
  for (int k = 0; k < g.nz(); ++k) {
    double depth = g.vertical().depth(k);
    for (int j = 0; j < g.ny_total(); ++j) {
      for (int i = 0; i < g.nx_total(); ++i) {
        double lat = g.lat(j, i);
        double t0 = initial_temperature(lat, depth);
        double s0 = initial_salinity(lat, depth);
        t_old.at(k, j, i) = t0;
        t_cur.at(k, j, i) = t0;
        s_old.at(k, j, i) = s0;
        s_cur.at(k, j, i) = s0;
      }
    }
  }
}

void OceanState::rotate_velocity() {
  std::swap(u_old, u_cur);
  std::swap(u_cur, u_new);
  std::swap(v_old, v_cur);
  std::swap(v_cur, v_new);
  u_cur.mark_dirty();
  v_cur.mark_dirty();
}

void OceanState::rotate_tracers() {
  std::swap(t_old, t_cur);
  std::swap(t_cur, t_new);
  std::swap(s_old, s_cur);
  std::swap(s_cur, s_new);
  t_cur.mark_dirty();
  s_cur.mark_dirty();
}

void OceanState::rotate_barotropic() {
  std::swap(eta_old, eta_cur);
  std::swap(eta_cur, eta_new);
  std::swap(ubar_old, ubar_cur);
  std::swap(ubar_cur, ubar_new);
  std::swap(vbar_old, vbar_cur);
  std::swap(vbar_cur, vbar_new);
  eta_cur.mark_dirty();
  ubar_cur.mark_dirty();
  vbar_cur.mark_dirty();
}

std::vector<const halo::BlockField3D*> prognostic_fields3(const OceanState& s) {
  return {&s.u_old, &s.u_cur, &s.v_old, &s.v_cur, &s.t_old, &s.t_cur, &s.s_old, &s.s_cur};
}

std::vector<halo::BlockField3D*> prognostic_fields3(OceanState& s) {
  return {&s.u_old, &s.u_cur, &s.v_old, &s.v_cur, &s.t_old, &s.t_cur, &s.s_old, &s.s_cur};
}

std::vector<const halo::BlockField2D*> prognostic_fields2(const OceanState& s) {
  return {&s.eta_old, &s.eta_cur, &s.ubar_old, &s.ubar_cur, &s.vbar_old, &s.vbar_cur};
}

std::vector<halo::BlockField2D*> prognostic_fields2(OceanState& s) {
  return {&s.eta_old, &s.eta_cur, &s.ubar_old, &s.ubar_cur, &s.vbar_old, &s.vbar_cur};
}

const std::vector<std::string>& prognostic_field_names() {
  static const std::vector<std::string> names = {
      "u_old", "u_cur", "v_old",   "v_cur",   "t_old",    "t_cur",    "s_old",
      "s_cur", "eta_old", "eta_cur", "ubar_old", "ubar_cur", "vbar_old", "vbar_cur"};
  return names;
}

}  // namespace licomk::core
