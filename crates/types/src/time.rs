//! Time handling for failure logs.
//!
//! Failure records carry an offset in [`Hours`] since the log's start date.
//! Calendar math (needed for the monthly/seasonal analyses of Figs. 11-12)
//! is provided by a small proleptic-Gregorian [`Date`] type, so the crate
//! does not depend on an external date-time library.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or offset expressed in hours.
///
/// This is the native unit of the Tsubame failure logs: both the time of a
/// failure (as an offset from the log start) and the time to recovery are
/// reported in hours.
///
/// # Examples
///
/// ```
/// use failtypes::Hours;
///
/// let mtbf = Hours::new(15.0);
/// let window = mtbf * 4.0;
/// assert_eq!(window, Hours::new(60.0));
/// assert_eq!(window.get(), 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hours(f64);

impl Hours {
    /// The zero duration.
    pub const ZERO: Hours = Hours(0.0);

    /// Creates a duration of `h` hours.
    ///
    /// Negative and non-finite values are representable (so that raw log
    /// data can be round-tripped); use [`Hours::is_valid`] to check.
    pub const fn new(h: f64) -> Self {
        Hours(h)
    }

    /// Returns the raw number of hours.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the duration in days (24-hour days).
    ///
    /// ```
    /// use failtypes::Hours;
    /// assert_eq!(Hours::new(48.0).days(), 2.0);
    /// ```
    pub fn days(self) -> f64 {
        self.0 / 24.0
    }

    /// Creates a duration from a number of 24-hour days.
    pub fn from_days(days: f64) -> Self {
        Hours(days * 24.0)
    }

    /// Returns `true` when the value is finite and non-negative, which is
    /// what every analysis in this workspace requires.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Hours) -> Hours {
        Hours(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Hours) -> Hours {
        Hours(self.0.max(other.0))
    }
}

impl fmt::Display for Hours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} h", self.0)
    }
}

impl Add for Hours {
    type Output = Hours;
    fn add(self, rhs: Hours) -> Hours {
        Hours(self.0 + rhs.0)
    }
}

impl AddAssign for Hours {
    fn add_assign(&mut self, rhs: Hours) {
        self.0 += rhs.0;
    }
}

impl Sub for Hours {
    type Output = Hours;
    fn sub(self, rhs: Hours) -> Hours {
        Hours(self.0 - rhs.0)
    }
}

impl SubAssign for Hours {
    fn sub_assign(&mut self, rhs: Hours) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Hours {
    type Output = Hours;
    fn mul(self, rhs: f64) -> Hours {
        Hours(self.0 * rhs)
    }
}

impl Div<f64> for Hours {
    type Output = Hours;
    fn div(self, rhs: f64) -> Hours {
        Hours(self.0 / rhs)
    }
}

impl Div for Hours {
    /// Dividing two durations yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Hours) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Hours {
    fn sum<I: Iterator<Item = Hours>>(iter: I) -> Hours {
        Hours(iter.map(|h| h.0).sum())
    }
}

impl From<f64> for Hours {
    fn from(h: f64) -> Self {
        Hours(h)
    }
}

impl From<Hours> for f64 {
    fn from(h: Hours) -> f64 {
        h.0
    }
}

/// A calendar month, `1..=12`.
///
/// ```
/// use failtypes::Month;
/// let m = Month::new(7).unwrap();
/// assert_eq!(m.name(), "Jul");
/// assert!(Month::new(13).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Month(u8);

impl Month {
    /// Creates a month from its 1-based number, returning `None` when the
    /// number is outside `1..=12`.
    pub fn new(m: u8) -> Option<Self> {
        (1..=12).contains(&m).then_some(Month(m))
    }

    /// Returns the 1-based month number.
    pub const fn number(self) -> u8 {
        self.0
    }

    /// Returns the zero-based index, convenient for array lookups.
    pub const fn index(self) -> usize {
        self.0 as usize - 1
    }

    /// Returns the conventional three-letter English abbreviation.
    pub const fn name(self) -> &'static str {
        const NAMES: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        NAMES[self.0 as usize - 1]
    }

    /// Iterates over all twelve months in calendar order.
    pub fn all() -> impl Iterator<Item = Month> {
        (1..=12).map(Month)
    }

    /// Returns `true` for July through December.
    ///
    /// The paper's seasonal analysis (Fig. 11) contrasts the first and the
    /// second half of the calendar year.
    pub const fn is_second_half(self) -> bool {
        self.0 >= 7
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A proleptic-Gregorian calendar date.
///
/// Only year/month/day arithmetic is needed by the analyses, so this type
/// supports exactly that: conversion to and from a day number, adding hours,
/// and extracting the month for seasonal bucketing.
///
/// # Examples
///
/// ```
/// use failtypes::Date;
///
/// let start = Date::new(2012, 1, 7).unwrap();
/// let later = start.plus_hours(failtypes::Hours::from_days(30.0));
/// assert_eq!(later, Date::new(2012, 2, 6).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, returning `None` when the month/day combination is
    /// not a real calendar date.
    pub fn new(year: i32, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) {
            return None;
        }
        if day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// Parses a strict `YYYY-MM-DD` calendar date: exactly three
    /// `-`-separated integer fields naming a real date. The one spelling
    /// of a date in a log header's window and a filter's `time` bound.
    ///
    /// ```
    /// use failtypes::Date;
    /// assert_eq!(Date::parse_ymd("2020-02-29"), Date::new(2020, 2, 29));
    /// assert_eq!(Date::parse_ymd("2019-02-29"), None);
    /// assert_eq!(Date::parse_ymd("2020-02"), None);
    /// assert_eq!(Date::parse_ymd("2020-02-01-01"), None);
    /// ```
    pub fn parse_ymd(s: &str) -> Option<Self> {
        let mut parts = s.split('-');
        let year = parts.next()?.parse::<i32>().ok()?;
        let month = parts.next()?.parse::<u8>().ok()?;
        let day = parts.next()?.parse::<u8>().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Date::new(year, month, day)
    }

    /// Returns the year.
    pub const fn year(self) -> i32 {
        self.year
    }

    /// Returns the month.
    pub fn month(self) -> Month {
        Month(self.month)
    }

    /// Returns the day of month, `1..=31`.
    pub const fn day(self) -> u8 {
        self.day
    }

    /// Returns the number of days since the civil epoch 1970-01-01.
    ///
    /// Uses the standard "days from civil" algorithm; exact for all
    /// representable dates.
    pub fn days_from_epoch(self) -> i64 {
        let y = if self.month <= 2 {
            self.year - 1
        } else {
            self.year
        } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let mp = (self.month as i64 + 9) % 12; // [0, 11], March = 0
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// Reconstructs a date from a day number as returned by
    /// [`Date::days_from_epoch`].
    pub fn from_days_from_epoch(z: i64) -> Self {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let day = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let month = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        let year = if month <= 2 { y + 1 } else { y } as i32;
        Date { year, month, day }
    }

    /// Returns the calendar date reached by advancing this date by the given
    /// (non-negative or negative) number of hours, truncated to day
    /// granularity.
    pub fn plus_hours(self, hours: Hours) -> Date {
        let days = (hours.get() / 24.0).floor() as i64;
        Date::from_days_from_epoch(self.days_from_epoch() + days)
    }

    /// Returns the whole number of hours between midnight of `self` and
    /// midnight of `other` (positive when `other` is later).
    ///
    /// ```
    /// use failtypes::{Date, Hours};
    /// let a = Date::new(2017, 5, 9).unwrap();
    /// let b = Date::new(2020, 2, 22).unwrap();
    /// assert_eq!(a.hours_until(b), Hours::from_days(1019.0));
    /// ```
    pub fn hours_until(self, other: Date) -> Hours {
        Hours::from_days((other.days_from_epoch() - self.days_from_epoch()) as f64)
    }

    /// Returns the `(year, month)` pair, the bucket key for the paper's
    /// monthly analyses.
    pub fn year_month(self) -> (i32, Month) {
        (self.year, Month(self.month))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Returns `true` when `year` is a Gregorian leap year.
///
/// ```
/// assert!(failtypes::is_leap_year(2020));
/// assert!(!failtypes::is_leap_year(1900));
/// assert!(failtypes::is_leap_year(2000));
/// ```
pub const fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Returns the number of days in the given month of the given year.
///
/// # Panics
///
/// Panics if `month` is not in `1..=12`.
pub const fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("month out of range"),
    }
}

/// An observation window anchored at a calendar start date.
///
/// Failure logs record event times as hour offsets into such a window; the
/// window is what turns offsets back into calendar dates and bounds every
/// rate (MTBF) computation.
///
/// # Examples
///
/// ```
/// use failtypes::{Date, Hours, ObservationWindow};
///
/// let w = ObservationWindow::new(
///     Date::new(2012, 1, 7).unwrap(),
///     Date::new(2013, 8, 1).unwrap(),
/// ).unwrap();
/// assert_eq!(w.duration().days(), 572.0);
/// assert!(w.contains(Hours::new(100.0)));
/// assert!(!w.contains(Hours::from_days(600.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationWindow {
    start: Date,
    end: Date,
    /// Whole days from `start` to `end`, fixed at construction so
    /// [`duration`](ObservationWindow::duration) and
    /// [`contains`](ObservationWindow::contains), which run once per
    /// record, convert no civil dates.
    days: i64,
}

impl ObservationWindow {
    /// Creates a window spanning `[start, end)`.
    ///
    /// Returns `None` when `end` is not strictly after `start`.
    pub fn new(start: Date, end: Date) -> Option<Self> {
        (end > start).then(|| ObservationWindow {
            start,
            end,
            days: end.days_from_epoch() - start.days_from_epoch(),
        })
    }

    /// Returns the first day of the window.
    pub const fn start(self) -> Date {
        self.start
    }

    /// Returns the exclusive end day of the window.
    pub const fn end(self) -> Date {
        self.end
    }

    /// Returns the total duration of the window.
    pub fn duration(self) -> Hours {
        Hours::from_days(self.days as f64)
    }

    /// Returns `true` when an event offset lies inside the window.
    pub fn contains(self, offset: Hours) -> bool {
        offset.get() >= 0.0 && offset.get() < self.duration().get()
    }

    /// The day an event offset falls on, counted from the window's
    /// first day (`floor(hours / 24)`): the integer form of
    /// [`date_of`](ObservationWindow::date_of), for bucketing without a
    /// calendar conversion.
    ///
    /// ```
    /// use failtypes::{Date, Hours, ObservationWindow};
    ///
    /// let w = ObservationWindow::new(
    ///     Date::new(2012, 1, 7).unwrap(),
    ///     Date::new(2013, 8, 1).unwrap(),
    /// ).unwrap();
    /// assert_eq!(w.day_of(Hours::new(23.9)), 0);
    /// assert_eq!(w.day_of(Hours::new(48.0)), 2);
    /// ```
    pub fn day_of(self, offset: Hours) -> i64 {
        (offset.get() / 24.0).floor() as i64
    }

    /// Converts an event offset into the calendar date it falls on.
    pub fn date_of(self, offset: Hours) -> Date {
        Date::from_days_from_epoch(self.start.days_from_epoch() + self.day_of(offset))
    }

    /// Iterates over the `(year, month)` buckets the window overlaps, in
    /// chronological order. The end month is included when the window ends
    /// mid-month.
    pub fn months(self) -> Vec<(i32, Month)> {
        let mut out = Vec::with_capacity(self.month_count());
        let (mut y, mut m) = self.start.year_month();
        let (ey, em) = self.last_month();
        loop {
            out.push((y, m));
            if (y, m) == (ey, em) {
                break;
            }
            if m.number() == 12 {
                y += 1;
                m = Month(1);
            } else {
                m = Month(m.number() + 1);
            }
        }
        out
    }

    /// The number of buckets [`months`](ObservationWindow::months)
    /// lists, computed without listing them.
    pub fn month_count(self) -> usize {
        let (sy, sm) = self.start.year_month();
        let (ey, em) = self.last_month();
        let months = (i64::from(ey) - i64::from(sy)) * 12 + em.index() as i64 - sm.index() as i64;
        months as usize + 1
    }

    /// The `(year, month)` of the window's last day.
    fn last_month(self) -> (i32, Month) {
        Date::from_days_from_epoch(self.end.days_from_epoch() - 1).year_month()
    }
}

impl fmt::Display for ObservationWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hours_arithmetic() {
        let a = Hours::new(10.0);
        let b = Hours::new(4.0);
        assert_eq!(a + b, Hours::new(14.0));
        assert_eq!(a - b, Hours::new(6.0));
        assert_eq!(a * 2.0, Hours::new(20.0));
        assert_eq!(a / 2.0, Hours::new(5.0));
        assert_eq!(a / b, 2.5);
        let mut c = a;
        c += b;
        assert_eq!(c, Hours::new(14.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn hours_sum_and_validity() {
        let total: Hours = [1.0, 2.0, 3.0].iter().map(|&h| Hours::new(h)).sum();
        assert_eq!(total, Hours::new(6.0));
        assert!(Hours::new(0.0).is_valid());
        assert!(!Hours::new(-1.0).is_valid());
        assert!(!Hours::new(f64::NAN).is_valid());
        assert!(!Hours::new(f64::INFINITY).is_valid());
    }

    #[test]
    fn hours_min_max_days() {
        assert_eq!(Hours::new(3.0).min(Hours::new(5.0)), Hours::new(3.0));
        assert_eq!(Hours::new(3.0).max(Hours::new(5.0)), Hours::new(5.0));
        assert_eq!(Hours::from_days(2.0).get(), 48.0);
        assert_eq!(Hours::new(36.0).days(), 1.5);
    }

    #[test]
    fn month_construction_and_names() {
        assert!(Month::new(0).is_none());
        assert!(Month::new(13).is_none());
        let months: Vec<Month> = Month::all().collect();
        assert_eq!(months.len(), 12);
        assert_eq!(months[0].name(), "Jan");
        assert_eq!(months[11].name(), "Dec");
        assert_eq!(months[6].index(), 6);
        assert!(!months[5].is_second_half());
        assert!(months[6].is_second_half());
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::new(2020, 2, 30).is_none());
        assert!(Date::new(2019, 2, 29).is_none());
        assert!(Date::new(2020, 2, 29).is_some());
        assert!(Date::new(2020, 13, 1).is_none());
        assert!(Date::new(2020, 0, 1).is_none());
        assert!(Date::new(2020, 4, 31).is_none());
        assert!(Date::new(2020, 4, 0).is_none());
    }

    #[test]
    fn date_epoch_roundtrip_known_values() {
        assert_eq!(Date::new(1970, 1, 1).unwrap().days_from_epoch(), 0);
        assert_eq!(Date::new(1970, 1, 2).unwrap().days_from_epoch(), 1);
        assert_eq!(Date::new(1969, 12, 31).unwrap().days_from_epoch(), -1);
        assert_eq!(Date::new(2000, 3, 1).unwrap().days_from_epoch(), 11_017);
    }

    #[test]
    fn date_roundtrip_sweep() {
        // Sweep a few decades of days to make sure the conversion is its own
        // inverse.
        for z in -20_000..40_000 {
            let d = Date::from_days_from_epoch(z);
            assert_eq!(d.days_from_epoch(), z, "roundtrip failed at {z} ({d})");
            assert!(Date::new(d.year(), d.month().number(), d.day()).is_some());
        }
    }

    #[test]
    fn date_plus_hours() {
        let d = Date::new(2012, 1, 7).unwrap();
        assert_eq!(d.plus_hours(Hours::new(23.9)), d);
        assert_eq!(
            d.plus_hours(Hours::new(24.0)),
            Date::new(2012, 1, 8).unwrap()
        );
        assert_eq!(
            d.plus_hours(Hours::from_days(400.0)),
            Date::new(2013, 2, 10).unwrap()
        );
    }

    #[test]
    fn tsubame_window_lengths() {
        // The paper's observation windows.
        let t2 = ObservationWindow::new(
            Date::new(2012, 1, 7).unwrap(),
            Date::new(2013, 8, 1).unwrap(),
        )
        .unwrap();
        assert_eq!(t2.duration().days(), 572.0);
        let t3 = ObservationWindow::new(
            Date::new(2017, 5, 9).unwrap(),
            Date::new(2020, 2, 22).unwrap(),
        )
        .unwrap();
        assert_eq!(t3.duration().days(), 1019.0);
    }

    #[test]
    fn window_rejects_inverted() {
        let a = Date::new(2020, 1, 1).unwrap();
        let b = Date::new(2020, 1, 2).unwrap();
        assert!(ObservationWindow::new(b, a).is_none());
        assert!(ObservationWindow::new(a, a).is_none());
        assert!(ObservationWindow::new(a, b).is_some());
    }

    #[test]
    fn window_date_of_and_contains() {
        let w = ObservationWindow::new(
            Date::new(2017, 5, 9).unwrap(),
            Date::new(2017, 6, 9).unwrap(),
        )
        .unwrap();
        assert!(w.contains(Hours::ZERO));
        assert!(!w.contains(Hours::new(-0.5)));
        assert_eq!(w.date_of(Hours::new(25.0)), Date::new(2017, 5, 10).unwrap());
        assert_eq!(w.duration(), Hours::from_days(31.0));
    }

    #[test]
    fn window_months_enumeration() {
        let w = ObservationWindow::new(
            Date::new(2012, 11, 15).unwrap(),
            Date::new(2013, 2, 2).unwrap(),
        )
        .unwrap();
        let months = w.months();
        let expected = [
            (2012, Month::new(11).unwrap()),
            (2012, Month::new(12).unwrap()),
            (2013, Month::new(1).unwrap()),
            (2013, Month::new(2).unwrap()),
        ];
        assert_eq!(months, expected);
    }

    #[test]
    fn window_months_single_month() {
        let w = ObservationWindow::new(
            Date::new(2012, 3, 2).unwrap(),
            Date::new(2012, 3, 20).unwrap(),
        )
        .unwrap();
        assert_eq!(months_len(&w), 1);
    }

    fn months_len(w: &ObservationWindow) -> usize {
        assert_eq!(w.month_count(), w.months().len());
        w.months().len()
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2004));
        assert!(!is_leap_year(2100));
        assert!(is_leap_year(2400));
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2021, 2), 28);
        assert_eq!(days_in_month(2021, 9), 30);
        assert_eq!(days_in_month(2021, 12), 31);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn date_epoch_roundtrip(z in -1_000_000i64..1_000_000) {
                let d = Date::from_days_from_epoch(z);
                prop_assert_eq!(d.days_from_epoch(), z);
                prop_assert!(Date::new(d.year(), d.month().number(), d.day()).is_some());
            }

            #[test]
            fn hours_until_is_antisymmetric(a in -200_000i64..200_000, b in -200_000i64..200_000) {
                let da = Date::from_days_from_epoch(a);
                let db = Date::from_days_from_epoch(b);
                prop_assert_eq!(da.hours_until(db).get(), -(db.hours_until(da).get()));
                prop_assert_eq!(da.hours_until(db).get(), (b - a) as f64 * 24.0);
            }

            #[test]
            fn window_duration_is_the_hours_between_its_dates(
                start in -200_000i64..200_000,
                len_days in 1i64..100_000,
            ) {
                let s = Date::from_days_from_epoch(start);
                let e = Date::from_days_from_epoch(start + len_days);
                let w = ObservationWindow::new(s, e).expect("end after start");
                prop_assert_eq!(w.duration().get().to_bits(), s.hours_until(e).get().to_bits());
            }

            #[test]
            fn window_months_cover_every_event_date(
                start in 10_000i64..20_000,
                len_days in 1i64..2_000,
                offset_frac in 0.0f64..1.0,
            ) {
                let s = Date::from_days_from_epoch(start);
                let e = Date::from_days_from_epoch(start + len_days);
                let w = ObservationWindow::new(s, e).expect("end after start");
                let months = w.months();
                prop_assert!(!months.is_empty());
                // Consecutive months, no gaps.
                for pair in months.windows(2) {
                    let (y0, m0) = pair[0];
                    let (y1, m1) = pair[1];
                    if m0.number() == 12 {
                        prop_assert_eq!((y1, m1.number()), (y0 + 1, 1));
                    } else {
                        prop_assert_eq!((y1, m1.number()), (y0, m0.number() + 1));
                    }
                }
                // Any in-window offset maps to a listed month.
                let offset = Hours::new(w.duration().get() * offset_frac * 0.999_999);
                let date = w.date_of(offset);
                prop_assert!(
                    months.contains(&date.year_month()),
                    "{date} not covered by {months:?}"
                );
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Hours::new(1.5).to_string(), "1.50 h");
        assert_eq!(Date::new(2012, 1, 7).unwrap().to_string(), "2012-01-07");
        assert_eq!(Month::new(3).unwrap().to_string(), "Mar");
        let w = ObservationWindow::new(
            Date::new(2012, 1, 7).unwrap(),
            Date::new(2013, 8, 1).unwrap(),
        )
        .unwrap();
        assert_eq!(w.to_string(), "[2012-01-07 .. 2013-08-01)");
    }
}
