//! Feedback power controller — the closed-loop alternative CuttleSys
//! argues against (§IV: "CuttleSys is an open-loop solution, which searches
//! the design space and finds the best resource allocation in a single
//! decision interval compared to feedback-based controllers, which take
//! significant time to converge").
//!
//! This is a textbook PID loop in the style of the MPC/controller
//! literature the paper cites (\[34\], \[35\], \[36\]): it observes chip power,
//! compares against the cap, and nudges a *global width level* — an index
//! into the core configurations ordered from narrowest to widest — applied
//! to all batch cores. One knob, measured feedback, incremental actuation:
//! robust, but it needs several decision intervals to settle after every
//! cap or load change, and until it settles it either violates the budget
//! or wastes headroom.

use simulator::{CoreConfig, NUM_CORE_CONFIGS};

/// A discrete PID controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidController {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Anti-windup clamp on the integral term.
    pub integral_limit: f64,
    integral: f64,
    last_error: Option<f64>,
}

impl PidController {
    /// Creates a controller with the given gains.
    pub fn new(kp: f64, ki: f64, kd: f64, integral_limit: f64) -> PidController {
        PidController {
            kp,
            ki,
            kd,
            integral_limit,
            integral: 0.0,
            last_error: None,
        }
    }

    /// One control step: returns the actuation for the measured `error`
    /// (setpoint − measurement).
    pub fn update(&mut self, error: f64) -> f64 {
        self.integral = (self.integral + error).clamp(-self.integral_limit, self.integral_limit);
        let derivative = self.last_error.map_or(0.0, |last| error - last);
        self.last_error = Some(error);
        self.kp * error + self.ki * self.integral + self.kd * derivative
    }
}

/// The global width-level actuator: a continuous level in
/// `[0, NUM_CORE_CONFIGS)` mapped onto core configurations ordered by
/// total active lanes (narrowest first), i.e. roughly by power.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthLevel {
    level: f64,
    ladder: Vec<CoreConfig>,
}

impl WidthLevel {
    /// Starts at the widest configuration.
    pub fn new() -> WidthLevel {
        let mut ladder: Vec<CoreConfig> = CoreConfig::all().collect();
        ladder.sort_by_key(|c| (c.total_lanes(), c.index()));
        WidthLevel {
            level: (NUM_CORE_CONFIGS - 1) as f64,
            ladder,
        }
    }

    /// Applies an actuation (positive widens, negative narrows).
    pub fn adjust(&mut self, delta: f64) {
        self.level = (self.level + delta).clamp(0.0, (NUM_CORE_CONFIGS - 1) as f64);
    }

    /// The configuration at the current level.
    pub fn config(&self) -> CoreConfig {
        self.ladder[self.level.round() as usize]
    }

    /// The raw level.
    pub fn level(&self) -> f64 {
        self.level
    }
}

impl Default for WidthLevel {
    fn default() -> Self {
        WidthLevel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_drives_a_first_order_plant_to_the_setpoint() {
        // plant: power = 2 + 3·level; setpoint 20 → level 6.
        let mut pid = PidController::new(0.15, 0.05, 0.02, 100.0);
        let mut level = 10.0_f64;
        let mut power = 2.0 + 3.0 * level;
        for _ in 0..50 {
            let actuation = pid.update(20.0 - power);
            level = (level + actuation).clamp(0.0, 26.0);
            power = 2.0 + 3.0 * level;
        }
        assert!((power - 20.0).abs() < 1.0, "plant settled at {power}");
    }

    #[test]
    fn pid_needs_multiple_steps_to_converge() {
        // The §IV point: after a setpoint step, a feedback loop spends
        // several intervals out of band.
        let mut pid = PidController::new(0.15, 0.05, 0.02, 100.0);
        let mut level = 26.0_f64;
        let mut out_of_band = 0;
        for _ in 0..20 {
            let power = 2.0 + 3.0 * level;
            if (power - 20.0).abs() > 2.0 {
                out_of_band += 1;
            }
            level = (level + pid.update(20.0 - power)).clamp(0.0, 26.0);
        }
        assert!(
            out_of_band >= 3,
            "a PID should take several steps, took {out_of_band}"
        );
    }

    #[test]
    fn integral_is_clamped() {
        let mut pid = PidController::new(0.0, 1.0, 0.0, 5.0);
        for _ in 0..100 {
            pid.update(100.0);
        }
        assert!(pid.update(0.0) <= 5.0);
    }

    #[test]
    fn width_ladder_is_monotone_in_lanes() {
        let w = WidthLevel::new();
        assert_eq!(w.config(), CoreConfig::widest());
        let mut w2 = WidthLevel::new();
        w2.adjust(-1000.0);
        assert_eq!(w2.config(), CoreConfig::narrowest());
        assert_eq!(w2.level(), 0.0);
    }

    #[test]
    fn adjust_moves_the_level_and_clamps() {
        let mut w = WidthLevel::new();
        w.adjust(-5.0);
        assert_eq!(w.level(), 21.0);
        w.adjust(100.0);
        assert_eq!(w.level(), 26.0);
    }
}
