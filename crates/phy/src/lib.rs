//! # mmtag-phy — the physical layer of the mmTag link
//!
//! The paper's tag modulates by switching its antennas between a reflective
//! and an absorbing state (§6), which the reader demodulates as on-off keying
//! (OOK). The evaluation then converts measured power into data rate through
//! "standard data rate tables based on the ASK modulation and BER of 10⁻³"
//! (§8). This crate implements both halves honestly:
//!
//! * [`ber`] — closed-form BER curves (Q-function theory) and numeric
//!   inversion ("what SNR buys BER 10⁻³?"),
//! * [`rate`] — the paper's bandwidth → rate mapping (Fig. 7's annotations)
//!   plus a rate-adaptation ladder,
//! * [`waveform`] — an actual IQ-sample OOK modem with AWGN, used to verify
//!   the closed forms by Monte-Carlo (experiment E5),
//! * [`bpsk`] — the antipodal backscatter modem (§1 names BPSK as the other
//!   tag-feasible scheme; it buys 3 dB over OOK),
//! * [`spectrum`] — Welch PSD and occupied bandwidth of the OOK waveform,
//!   the measurement behind the paper's `symbol rate = B/2` rule,
//! * [`pulse`] — raised-cosine pulse shaping (slew-limited switching):
//!   tighter spectra, so the same channel carries up to 1.5× the rate,
//! * [`cancellation`] — waveform-level self-interference cancellation
//!   (train + track the leaked carrier, §9's reader-side open problem).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod bpsk;
pub mod cancellation;
pub mod constellation;
pub mod pulse;
pub mod rate;
pub mod spectrum;
pub mod waveform;

pub use rate::RateAdaptation;
pub use waveform::OokModem;
