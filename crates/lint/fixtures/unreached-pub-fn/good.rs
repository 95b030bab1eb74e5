// Fixture: every `pub fn` is reached. The root calls `render`; `render`
// passes `Report::total` and `scaled` as fn values and builds a
// `Summary` through a turbofish on its own type; `Report::total` reaches
// `Report::in_ms` through `Self::`; the `Display` impl is trait surface,
// never a finding; and the mean that only a unit test needed now lives
// under #[cfg(test)] as that test's oracle.
use std::fmt;

pub struct Report {
    pub wakes: u64,
    pub wake_s: f64,
}

impl Report {
    pub fn total(&self) -> f64 {
        Self::in_ms(self.wake_s)
    }

    pub fn in_ms(x: f64) -> f64 {
        x * 1e3
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", label(self.wakes))
    }
}

pub struct Summary<T> {
    pub totals: Vec<T>,
}

impl<T> Summary<T> {
    pub fn of(totals: Vec<T>) -> Summary<T> {
        Summary { totals }
    }
}

pub fn label(wakes: u64) -> String {
    format!("{wakes} wakes")
}

pub fn scaled(x: f64) -> f64 {
    x * 1e3
}

pub fn render(reports: &[Report]) -> Summary<f64> {
    Summary::<f64>::of(reports.iter().map(Report::total).map(scaled).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_wake_latency_s(r: &Report) -> f64 {
        r.wake_s / r.wakes.max(1) as f64
    }

    #[test]
    fn mean_of_no_wakes_is_zero() {
        let r = Report { wakes: 0, wake_s: 0.0 };
        assert_eq!(mean_wake_latency_s(&r), 0.0);
    }
}
