// Fixture: public surface nothing reaches. The root calls `render`, which
// reaches `Report::total`, which reaches `Report::scaled` through
// `Self::`. Nothing reaches the rest: `mean_wake_latency_s` is called
// only by its own file's unit test and `legacy_csv` by nothing at all;
// `Summary::scaled` only shares its name with another impl's
// `Self::scaled`, `Summary::new` with the turbofish `Vec::<f64>::new()`,
// and `Report::wakes` with a field and a local.
pub struct Report {
    pub wakes: u64,
    pub wake_s: f64,
}

impl Report {
    pub fn total(&self) -> f64 {
        Self::scaled(self.wake_s)
    }

    pub fn scaled(x: f64) -> f64 {
        x * 1e3
    }

    pub fn wakes(&self) -> u64 {
        self.wakes
    }

    pub fn mean_wake_latency_s(&self) -> f64 {
        self.wake_s / self.wakes.max(1) as f64
    }
}

pub struct Summary {
    pub totals: Vec<f64>,
}

impl Summary {
    pub fn new() -> Summary {
        Summary { totals: Vec::new() }
    }

    pub fn scaled(x: f64) -> f64 {
        x * 1e6
    }
}

pub fn render(report: &Report) -> String {
    let wakes = report.wakes;
    let mut totals = Vec::<f64>::new();
    totals.push(report.total());
    format!("{} {:?}", wakes, totals)
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
