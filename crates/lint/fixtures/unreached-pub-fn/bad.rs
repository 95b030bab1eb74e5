// Fixture: public surface nothing reaches. The root calls `render`, which
// reaches `Report::total`; `mean_wake_latency_s` is called only by its
// own file's unit test and `legacy_csv` by nothing at all.
pub struct Report {
    pub wakes: u64,
    pub wake_s: f64,
}

impl Report {
    pub fn total(&self) -> f64 {
        self.wake_s
    }

    pub fn mean_wake_latency_s(&self) -> f64 {
        self.wake_s / self.wakes.max(1) as f64
    }
}

pub fn render(report: &Report) -> String {
    format!("{:.3}", report.total())
}

pub fn legacy_csv(report: &Report) -> String {
    format!("{},{}", report.wakes, report.wake_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_no_wakes_is_zero() {
        let r = Report { wakes: 0, wake_s: 0.0 };
        assert_eq!(r.mean_wake_latency_s(), 0.0);
    }
}
