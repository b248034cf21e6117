// SI unit helpers for readable circuit and system descriptions.
//
// All quantities in the library are plain `double` in base SI units
// (volts, amperes, ohms, henries, farads, seconds, hertz, watts).
// These user-defined literals exist so that netlists and scenario
// configurations read like a datasheet:
//
//   auto c = Capacitor{10.0_nF};
//   link.set_geometry(6.0_mm, 0.0_mm);
#pragma once

namespace ironic::units {

// --- magnitude prefixes -------------------------------------------------
constexpr double kPico = 1e-12;
constexpr double kNano = 1e-9;
constexpr double kMicro = 1e-6;
constexpr double kMilli = 1e-3;
constexpr double kKilo = 1e3;
constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;

// --- time ---------------------------------------------------------------
constexpr double operator""_s(long double v) { return static_cast<double>(v); }
constexpr double operator""_ms(long double v) { return static_cast<double>(v) * kMilli; }
constexpr double operator""_us(long double v) { return static_cast<double>(v) * kMicro; }
constexpr double operator""_ns(long double v) { return static_cast<double>(v) * kNano; }
constexpr double operator""_ps(long double v) { return static_cast<double>(v) * kPico; }
constexpr double operator""_min(long double v) { return static_cast<double>(v) * 60.0; }
constexpr double operator""_hr(long double v) { return static_cast<double>(v) * 3600.0; }

// --- electrical ---------------------------------------------------------
constexpr double operator""_V(long double v) { return static_cast<double>(v); }
constexpr double operator""_mV(long double v) { return static_cast<double>(v) * kMilli; }
constexpr double operator""_uV(long double v) { return static_cast<double>(v) * kMicro; }
constexpr double operator""_A(long double v) { return static_cast<double>(v); }
constexpr double operator""_mA(long double v) { return static_cast<double>(v) * kMilli; }
constexpr double operator""_uA(long double v) { return static_cast<double>(v) * kMicro; }
constexpr double operator""_nA(long double v) { return static_cast<double>(v) * kNano; }
constexpr double operator""_pA(long double v) { return static_cast<double>(v) * kPico; }
constexpr double operator""_Ohm(long double v) { return static_cast<double>(v); }
constexpr double operator""_kOhm(long double v) { return static_cast<double>(v) * kKilo; }
constexpr double operator""_MOhm(long double v) { return static_cast<double>(v) * kMega; }
constexpr double operator""_F(long double v) { return static_cast<double>(v); }
constexpr double operator""_uF(long double v) { return static_cast<double>(v) * kMicro; }
constexpr double operator""_nF(long double v) { return static_cast<double>(v) * kNano; }
constexpr double operator""_pF(long double v) { return static_cast<double>(v) * kPico; }
constexpr double operator""_H(long double v) { return static_cast<double>(v); }
constexpr double operator""_mH(long double v) { return static_cast<double>(v) * kMilli; }
constexpr double operator""_uH(long double v) { return static_cast<double>(v) * kMicro; }
constexpr double operator""_nH(long double v) { return static_cast<double>(v) * kNano; }

// --- power / energy -----------------------------------------------------
constexpr double operator""_W(long double v) { return static_cast<double>(v); }
constexpr double operator""_mW(long double v) { return static_cast<double>(v) * kMilli; }
constexpr double operator""_uW(long double v) { return static_cast<double>(v) * kMicro; }
constexpr double operator""_J(long double v) { return static_cast<double>(v); }
constexpr double operator""_mWh(long double v) { return static_cast<double>(v) * kMilli * 3600.0; }
constexpr double operator""_Wh(long double v) { return static_cast<double>(v) * 3600.0; }
constexpr double operator""_mAh(long double v) { return static_cast<double>(v) * kMilli * 3600.0; }

// --- frequency ----------------------------------------------------------
constexpr double operator""_Hz(long double v) { return static_cast<double>(v); }
constexpr double operator""_kHz(long double v) { return static_cast<double>(v) * kKilo; }
constexpr double operator""_MHz(long double v) { return static_cast<double>(v) * kMega; }
constexpr double operator""_kbps(long double v) { return static_cast<double>(v) * kKilo; }

// --- geometry -----------------------------------------------------------
constexpr double operator""_m(long double v) { return static_cast<double>(v); }
constexpr double operator""_cm(long double v) { return static_cast<double>(v) * 1e-2; }
constexpr double operator""_mm(long double v) { return static_cast<double>(v) * kMilli; }
constexpr double operator""_um(long double v) { return static_cast<double>(v) * kMicro; }

// --- chemistry ----------------------------------------------------------
// Concentrations are mol/m^3 internally; 1 mM == 1 mol/m^3.
constexpr double operator""_mM(long double v) { return static_cast<double>(v); }
constexpr double operator""_uM(long double v) { return static_cast<double>(v) * kMilli; }

}  // namespace ironic::units
