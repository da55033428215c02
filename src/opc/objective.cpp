#include "opc/objective.hpp"

#include <cmath>
#include <map>
#include <vector>

#include "math/backend.hpp"
#include "math/convolution.hpp"
#include "math/stats.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {
namespace {

/// Z (and optionally dZ/dI = theta_Z Z (1-Z)) for an aerial image at a
/// given dose. Pass dZdI = nullptr when only Z is needed -- the nominal
/// path's term fields fold the derivative in themselves.
void resistForward(const ResistModel& resist, const RealGrid& aerialRaw,
                   double dose, RealGrid& z, RealGrid* dZdI = nullptr) {
  const int rows = aerialRaw.rows();
  const int cols = aerialRaw.cols();
  z = RealGrid(rows, cols);
  if (dZdI != nullptr) *dZdI = RealGrid(rows, cols);
  for (std::size_t i = 0; i < aerialRaw.size(); ++i) {
    const double intensity = dose * aerialRaw.data()[i];
    const double zv = resist.sigmoid(intensity);
    z.data()[i] = zv;
    if (dZdI != nullptr) {
      dZdI->data()[i] = resist.thetaZ * zv * (1.0 - zv);
    }
  }
}

}  // namespace

IltObjective::IltObjective(const LithoSimulator& sim, BitGrid target,
                           IltConfig config)
    : sim_(sim),
      target_(std::move(target)),
      config_(std::move(config)) {
  config_.validate();
  const int n = sim_.gridSize();
  MOSAIC_CHECK(target_.rows() == n && target_.cols() == n,
               "target raster is " << target_.rows() << "x" << target_.cols()
                                   << ", simulator grid is " << n);
  targetReal_ = toReal(target_);
  const int pixelNm = sim_.optics().pixelNm;
  samples_ = extractSamples(target_, config_.sampleSpacingNm / pixelNm);
  epeHalfWidthPx_ = std::max(
      1, static_cast<int>(std::lround(config_.epeThresholdNm / pixelNm)));
}

RealGrid IltObjective::imageDiffGradientField(const RealGrid& zNominal,
                                              double* valueOut) const {
  // F_id = sum |Z - Zt|^gamma  (Eq. 16; |.| so odd gamma stays a metric).
  // dF/dI = gamma |Z - Zt|^(gamma-1) sign(Z - Zt) * thetaZ Z (1 - Z).
  const double gamma = config_.gamma;
  const ResistModel& resist = sim_.resist();
  RealGrid g(zNominal.rows(), zNominal.cols());
  double value = 0.0;
  for (std::size_t i = 0; i < zNominal.size(); ++i) {
    const double d = zNominal.data()[i] - targetReal_.data()[i];
    const double ad = std::fabs(d);
    value += std::pow(ad, gamma);
    const double z = zNominal.data()[i];
    const double dZdI = resist.thetaZ * z * (1.0 - z);
    const double sign = (d >= 0.0) ? 1.0 : -1.0;
    g.data()[i] = gamma * std::pow(ad, gamma - 1.0) * sign * dZdI;
  }
  *valueOut = value;
  return g;
}

RealGrid IltObjective::epeGradientField(const RealGrid& zNominal,
                                        double* valueOut) const {
  // Eq. 9-14. For each sample point, Dsum is the squared image difference
  // summed over the EPE window perpendicular to the edge; the sigmoid of
  // (Dsum - tau) is the soft violation. The per-sample outer derivatives
  // theta_epe * s * (1 - s) are accumulated into a per-pixel weight field
  // W, after which dF/dZ = W * 2 (Z - Zt) -- identical algebra to the
  // paper's per-sample Eq. 14 sum, evaluated with one convolution pair.
  const int rows = zNominal.rows();
  const int cols = zNominal.cols();
  // Violation when Dsum >= th_epe (Eq. 11): with pixel-counting D, the
  // threshold is the half-window width w (a fully missing edge mismatches
  // exactly the inner half of the window).
  const int w = epeHalfWidthPx_;
  const double tau = static_cast<double>(w);
  const ResistModel& resist = sim_.resist();

  // Squared image difference D (Eq. 10).
  RealGrid d2(rows, cols);
  for (std::size_t i = 0; i < d2.size(); ++i) {
    const double d = zNominal.data()[i] - targetReal_.data()[i];
    d2.data()[i] = d * d;
  }

  RealGrid weight(rows, cols, 0.0);
  double value = 0.0;
  for (const auto& s : samples_) {
    double dsum = 0.0;
    // Window spans w pixels on each side of the boundary, along the
    // direction perpendicular to the edge.
    const int lo = s.boundary - w;
    const int hi = s.boundary + w - 1;
    for (int t = lo; t <= hi; ++t) {
      if (s.horizontal) {
        if (t >= 0 && t < rows) dsum += d2(t, s.along);
      } else {
        if (t >= 0 && t < cols) dsum += d2(s.along, t);
      }
    }
    const double sig =
        1.0 / (1.0 + std::exp(-config_.thetaEpe * (dsum - tau)));
    value += sig;
    const double outer = config_.thetaEpe * sig * (1.0 - sig);
    for (int t = lo; t <= hi; ++t) {
      if (s.horizontal) {
        if (t >= 0 && t < rows) weight(t, s.along) += outer;
      } else {
        if (t >= 0 && t < cols) weight(s.along, t) += outer;
      }
    }
  }

  RealGrid g(rows, cols);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double z = zNominal.data()[i];
    const double dZdI = resist.thetaZ * z * (1.0 - z);
    g.data()[i] = weight.data()[i] * 2.0 *
                  (z - targetReal_.data()[i]) * dZdI;
  }
  *valueOut = value;
  return g;
}

RealGrid IltObjective::gradientChains(const exec::LatticeValues& maskSpectrum,
                                      const KernelSet& kernels,
                                      const RealGrid& gField) const {
  MOSAIC_SPAN("objective.gradient");
  const int n = sim_.gridSize();
  const Fft2d& fft = fft2dFor(n, n);
  RealGrid grad(n, n);
  if (config_.gradientMode == GradientMode::kCombinedKernel) {
    const double unit = 1.0;
    exec::socsGradient(fft, kernels.lattice, maskSpectrum, &kernels.combined,
                       &unit, 1, gField, grad);
  } else {
    const int count = (config_.inLoopKernels <= 0)
                          ? kernels.kernelCount()
                          : std::min(config_.inLoopKernels,
                                     kernels.kernelCount());
    exec::socsGradient(fft, kernels.lattice, maskSpectrum,
                       kernels.kernels.data(), kernels.weights.data(), count,
                       gField, grad);
  }
  return grad;
}

IltObjective::Evaluation IltObjective::evaluate(const RealGrid& mask,
                                                bool needGradient) const {
  const int n = sim_.gridSize();
  MOSAIC_CHECK(mask.rows() == n && mask.cols() == n, "mask grid mismatch");
  MOSAIC_SPAN("objective.evaluate");

  Evaluation eval;
  const exec::LatticeValues maskSpectrum = sim_.maskSpectrum(mask);

  // One imaging step for the whole evaluation: condition 0 drives the
  // design-target term, condition 1 + c is process corner c of F_pvb
  // (Eq. 18). Every condition asks for the raw dose-1 image at its focus,
  // so corners at one focus share one SOCS sum (the focus-0 corners share
  // the nominal one) and each corner's dose enters in its epilogue. The
  // distinct foci and the terms sharing an image run side by side; each
  // condition writes only its own slot, and the merge below runs serially
  // in corner order, so the result is identical at every worker count.
  std::vector<ProcessCorner> conditions{nominalCorner()};
  if (config_.beta > 0.0) {
    for (const ProcessCorner& corner : config_.pvbCorners) {
      conditions.push_back({corner.focusNm, 1.0});
    }
  }
  const std::size_t cornerCount = conditions.size() - 1;
  double targetValue = 0.0;
  RealGrid gTarget;
  std::vector<double> cornerValue(cornerCount, 0.0);
  std::vector<RealGrid> cornerField(cornerCount);
  const ResistModel& resist = sim_.resist();
  sim_.imageConditions(
      maskSpectrum, conditions, config_.inLoopKernels,
      [&](std::size_t i, const RealGrid& aerialRaw) {
        MOSAIC_SPAN("objective.terms");
        if (i == 0) {
          RealGrid zNominal;
          resistForward(resist, aerialRaw, 1.0, zNominal);
          gTarget = (config_.targetTerm == TargetTerm::kEpe)
                        ? epeGradientField(zNominal, &targetValue)
                        : imageDiffGradientField(zNominal, &targetValue);
          eval.zNominal = std::move(zNominal);
          return;
        }
        // Fused corner epilogue: dose scaling, resist sigmoid, dZ/dI, the
        // PVB residual and the dF/dI field all come out of one sweep over
        // the aerial image (the Z/dZdI corner grids are never
        // materialized).
        const double dose = config_.pvbCorners[i - 1].dose;
        RealGrid g;
        if (needGradient) g = RealGrid(n, n);
        double value = 0.0;
        for (std::size_t p = 0; p < aerialRaw.size(); ++p) {
          const double zv = resist.sigmoid(dose * aerialRaw.data()[p]);
          const double diff = zv - targetReal_.data()[p];
          value += diff * diff;
          if (needGradient) {
            // dF/dI_raw = 2 (Z - Zt) * dZ/dI * dose (intensity scales by
            // dose), with dZ/dI = theta_Z Z (1 - Z).
            const double dZdI = resist.thetaZ * zv * (1.0 - zv);
            g.data()[p] = 2.0 * diff * dZdI * dose;
          }
        }
        cornerValue[i - 1] = value;
        cornerField[i - 1] = std::move(g);
      });
  eval.targetValue = targetValue;

  double pvbValue = 0.0;
  for (const double value : cornerValue) pvbValue += value;
  eval.pvbValue = pvbValue;

  if (needGradient) {
    // Group the dF/dI fields by focus so each kernel set pays exactly one
    // convolution chain.
    std::map<double, RealGrid> gByFocus;
    {
      MOSAIC_SPAN("objective.merge");
      auto addField = [&](double focus, const RealGrid& g, double scale) {
        auto it = gByFocus.find(focus);
        if (it == gByFocus.end()) {
          it = gByFocus.emplace(focus, RealGrid(n, n, 0.0)).first;
        }
        RealGrid& acc = it->second;
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc.data()[i] += scale * g.data()[i];
        }
      };
      if (config_.alpha > 0.0) addField(0.0, gTarget, config_.alpha);
      for (std::size_t ci = 0; ci < cornerCount; ++ci) {
        addField(config_.pvbCorners[ci].focusNm, cornerField[ci],
                 config_.beta);
      }
    }

    // The per-focus chains run side by side, each into its own grid; the
    // grids are added in focus order, so the sum is the same at every
    // worker count. With resist diffusion the observed intensity is
    // Blur(I_raw); the blur is self-adjoint, so dF/dI_raw =
    // Blur(dF/dI_observed).
    std::vector<std::map<double, RealGrid>::const_iterator> foci;
    for (auto it = gByFocus.cbegin(); it != gByFocus.cend(); ++it) {
      foci.push_back(it);
    }
    const double diffusionPx =
        resist.diffusionSigmaNm / sim_.optics().pixelNm;
    std::vector<RealGrid> focusGrad(foci.size());
    parallelFor(0, foci.size(), [&](std::size_t f) {
      const auto& [focus, g] = *foci[f];
      const KernelSet& kernels = sim_.kernels(focus);
      focusGrad[f] =
          (diffusionPx > 0.0)
              ? gradientChains(maskSpectrum, kernels,
                               gaussianBlur(g, diffusionPx))
              : gradientChains(maskSpectrum, kernels, g);
    });
    MOSAIC_SPAN("objective.merge");
    eval.gradMask = RealGrid(n, n, 0.0);
    for (const RealGrid& grad : focusGrad) {
      for (std::size_t i = 0; i < grad.size(); ++i) {
        eval.gradMask.data()[i] += grad.data()[i];
      }
    }
  }

  // Mask smoothness regularizer: F_reg = sum of squared forward
  // differences; dF_reg/dM is (minus) the discrete 5-point Laplacian with
  // mirrored (zero-flux) boundaries.
  if (config_.regWeight > 0.0) {
    double regValue = 0.0;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        const double m = mask(r, c);
        if (r + 1 < n) {
          const double d = mask(r + 1, c) - m;
          regValue += d * d;
        }
        if (c + 1 < n) {
          const double d = mask(r, c + 1) - m;
          regValue += d * d;
        }
      }
    }
    eval.regValue = regValue;
    if (needGradient) {
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          double g = 0.0;
          const double m = mask(r, c);
          if (r + 1 < n) g -= 2.0 * (mask(r + 1, c) - m);
          if (r > 0) g += 2.0 * (m - mask(r - 1, c));
          if (c + 1 < n) g -= 2.0 * (mask(r, c + 1) - m);
          if (c > 0) g += 2.0 * (m - mask(r, c - 1));
          eval.gradMask(r, c) += config_.regWeight * g;
        }
      }
    }
  }

  eval.value = config_.alpha * targetValue + config_.beta * pvbValue +
               config_.regWeight * eval.regValue;
  MOSAIC_FAILPOINT_DATA("objective.evaluate", &eval.value, 1);
  if (needGradient) {
    MOSAIC_FAILPOINT_DATA("objective.gradient", eval.gradMask.data(),
                          eval.gradMask.size());
  }
  return eval;
}

}  // namespace mosaic
