#pragma once
/// \file objective.hpp
/// The ILT objective F = alpha * F_target + beta * F_pvb (paper Eq. 7,
/// 19-20) with closed-form gradients w.r.t. the mask pixels:
///
///  * F_epe (Eq. 9-15): per-sample sigmoid of the summed image difference
///    Dsum inside the EPE window -- the differentiable EPE-violation count
///    (MOSAIC_exact). The per-sample window weights are aggregated into a
///    single field before the convolution chain, which is algebraically
///    identical to the paper's per-sample sum but needs only one
///    convolution pair per focus condition.
///  * F_id (Eq. 16-17): gamma-power image difference (MOSAIC_fast).
///  * F_pvb (Eq. 18): quadratic difference of every process-corner print
///    against the target.
///
/// Gradient convolutions use either the combined kernel sum_k w_k h_k
/// (Eq. 21 speedup) or the exact per-kernel SOCS sum.

#include <vector>

#include "geometry/edges.hpp"
#include "litho/simulator.hpp"
#include "opc/ilt_config.hpp"

namespace mosaic {

/// Differentiable ILT objective bound to one simulator + target.
class IltObjective {
 public:
  IltObjective(const LithoSimulator& sim, BitGrid target, IltConfig config);

  struct Evaluation {
    double value = 0.0;        ///< alpha*target + beta*pvb + reg*smooth
    double targetValue = 0.0;  ///< unweighted F_epe or F_id
    double pvbValue = 0.0;     ///< unweighted F_pvb
    double regValue = 0.0;     ///< unweighted F_reg (mask smoothness)
    RealGrid gradMask;         ///< dF/dM, empty when gradient not requested
    RealGrid zNominal;         ///< continuous nominal print (telemetry)
  };

  /// Evaluate F (and optionally its mask gradient) at a mask.
  [[nodiscard]] Evaluation evaluate(const RealGrid& mask,
                                    bool needGradient) const;

  [[nodiscard]] const BitGrid& target() const { return target_; }
  [[nodiscard]] const RealGrid& targetReal() const { return targetReal_; }
  [[nodiscard]] const std::vector<SamplePoint>& samples() const {
    return samples_;
  }
  [[nodiscard]] const IltConfig& config() const { return config_; }
  [[nodiscard]] const LithoSimulator& simulator() const { return sim_; }

 private:
  /// dF/dI field for the F_id term at the nominal corner.
  RealGrid imageDiffGradientField(const RealGrid& zNominal,
                                  double* valueOut) const;
  /// dF/dI field for the F_epe term at the nominal corner.
  RealGrid epeGradientField(const RealGrid& zNominal, double* valueOut) const;

  /// The convolution chain 2 Re[(G . conj(A)) (*) H_flip] for the kernel
  /// set of one focus condition (paper Eq. 15/17).
  [[nodiscard]] RealGrid gradientChains(
      const exec::LatticeValues& maskSpectrum, const KernelSet& kernels,
      const RealGrid& gField) const;

  const LithoSimulator& sim_;
  BitGrid target_;
  RealGrid targetReal_;
  IltConfig config_;
  std::vector<SamplePoint> samples_;
  int epeHalfWidthPx_ = 0;
};

}  // namespace mosaic
