//! Dataset carrier types: typed raw data and the preprocessed dense form.

use dfs_linalg::Matrix;

/// A raw column before preprocessing.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Numeric values; `NaN` marks a missing value.
    Numeric(Vec<f64>),
    /// Categorical codes (`None` = missing) with the category cardinality.
    Categorical {
        /// Per-instance category code, `None` when missing.
        codes: Vec<Option<u32>>,
        /// Number of distinct categories (codes are `< cardinality`).
        cardinality: u32,
    },
}

impl Column {
    /// Number of instances in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical { codes, .. } => codes.len(),
        }
    }

    /// `true` when the column has no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dense features this column expands to under one-hot.
    pub fn expanded_width(&self) -> usize {
        match self {
            Column::Numeric(_) => 1,
            Column::Categorical { cardinality, .. } => *cardinality as usize,
        }
    }
}

/// A dataset as loaded/generated: typed attributes, binary target, and the
/// index of the protected attribute (paper Table 2's "Sensitive Attribute").
#[derive(Debug, Clone)]
pub struct RawDataset {
    /// Human-readable dataset name (e.g. `"compas"`).
    pub name: String,
    /// Attribute name + typed values, one entry per *attribute* (pre one-hot).
    pub columns: Vec<(String, Column)>,
    /// Binary classification target.
    pub target: Vec<bool>,
    /// Index into `columns` of the binary protected attribute.
    pub protected_attr: usize,
}

impl RawDataset {
    /// Number of instances.
    pub fn n_rows(&self) -> usize {
        self.target.len()
    }

    /// Number of attributes (paper's "Attributes" column).
    pub fn n_attributes(&self) -> usize {
        self.columns.len()
    }

    /// Number of dense features after one-hot (paper's "Features" column).
    pub fn n_expanded_features(&self) -> usize {
        self.columns.iter().map(|(_, c)| c.expanded_width()).sum()
    }

    /// Per-instance protected-group membership (`true` = minority group).
    ///
    /// The protected attribute must be numeric-binary or categorical-binary;
    /// the *rarer* value is designated the minority group. Missing values
    /// count as majority.
    pub fn protected_membership(&self) -> Vec<bool> {
        let (_, col) = &self.columns[self.protected_attr];
        let raw: Vec<bool> = match col {
            Column::Numeric(v) => v.iter().map(|&x| x > 0.5).collect(),
            Column::Categorical { codes, .. } => {
                codes.iter().map(|c| c.map(|v| v > 0).unwrap_or(false)).collect()
            }
        };
        let ones = raw.iter().filter(|&&b| b).count();
        if ones * 2 <= raw.len() {
            raw
        } else {
            raw.into_iter().map(|b| !b).collect()
        }
    }

    /// Sanity-checks internal consistency; returns a description on failure.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_rows();
        for (name, col) in &self.columns {
            if col.len() != n {
                return Err(format!("column '{name}' has {} rows, expected {n}", col.len()));
            }
            if let Column::Categorical { codes, cardinality } = col {
                if let Some(bad) = codes.iter().flatten().find(|&&c| c >= *cardinality) {
                    return Err(format!("column '{name}' has code {bad} >= cardinality {cardinality}"));
                }
            }
        }
        if self.protected_attr >= self.columns.len() {
            return Err(format!(
                "protected attribute index {} out of range ({} columns)",
                self.protected_attr,
                self.columns.len()
            ));
        }
        Ok(())
    }
}

/// A fully preprocessed dataset: dense features in `[0, 1]`, binary target,
/// and per-instance protected-group membership.
///
/// This is what scenarios, models and metrics operate on. Feature selection
/// manipulates *column indices* of [`Dataset::x`].
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// Instances × features, min–max scaled and imputed.
    pub x: Matrix,
    /// Binary classification target, one per row of `x`.
    pub y: Vec<bool>,
    /// `true` when the instance belongs to the minority group.
    pub protected: Vec<bool>,
    /// Feature names (one-hot expanded: `"attr=3"` style for categoricals).
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Number of instances.
    pub fn n_rows(&self) -> usize {
        self.x.nrows()
    }

    /// Number of dense features.
    pub fn n_features(&self) -> usize {
        self.x.ncols()
    }

    /// Restricts the dataset to a row subset (by instance indices).
    pub fn select_rows(&self, indices: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            protected: indices.iter().map(|&i| self.protected[i]).collect(),
            feature_names: self.feature_names.clone(),
        }
    }

    /// Fraction of positive labels.
    pub fn positive_rate(&self) -> f64 {
        if self.y.is_empty() {
            return 0.0;
        }
        self.y.iter().filter(|&&b| b).count() as f64 / self.y.len() as f64
    }

    /// Fraction of minority-group instances.
    pub fn minority_rate(&self) -> f64 {
        if self.protected.is_empty() {
            return 0.0;
        }
        self.protected.iter().filter(|&&b| b).count() as f64 / self.protected.len() as f64
    }

    /// Sanity-checks internal consistency; returns a description on failure.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_rows();
        if self.y.len() != n {
            return Err(format!("target has {} entries, expected {n}", self.y.len()));
        }
        if self.protected.len() != n {
            return Err(format!("protected has {} entries, expected {n}", self.protected.len()));
        }
        if self.feature_names.len() != self.n_features() {
            return Err(format!(
                "feature_names has {} entries, expected {}",
                self.feature_names.len(),
                self.n_features()
            ));
        }
        if self.x.as_slice().iter().any(|v| v.is_nan()) {
            return Err("feature matrix contains NaN after preprocessing".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_raw() -> RawDataset {
        RawDataset {
            name: "tiny".into(),
            columns: vec![
                ("age".into(), Column::Numeric(vec![20.0, 30.0, f64::NAN, 50.0])),
                (
                    "color".into(),
                    Column::Categorical {
                        codes: vec![Some(0), Some(2), Some(1), None],
                        cardinality: 3,
                    },
                ),
                ("sex".into(), Column::Numeric(vec![1.0, 0.0, 0.0, 0.0])),
            ],
            target: vec![true, false, true, false],
            protected_attr: 2,
        }
    }

    #[test]
    fn raw_counts_match_table2_semantics() {
        let raw = tiny_raw();
        assert_eq!(raw.n_rows(), 4);
        assert_eq!(raw.n_attributes(), 3);
        // 1 numeric + 3 one-hot + 1 numeric = 5 expanded features
        assert_eq!(raw.n_expanded_features(), 5);
        assert!(raw.validate().is_ok());
    }

    #[test]
    fn protected_membership_picks_minority() {
        let raw = tiny_raw();
        // sex has one 1.0 (rarer) -> that instance is minority
        assert_eq!(raw.protected_membership(), vec![true, false, false, false]);
    }

    #[test]
    fn protected_membership_flips_when_ones_majority() {
        let mut raw = tiny_raw();
        raw.columns[2].1 = Column::Numeric(vec![1.0, 1.0, 1.0, 0.0]);
        assert_eq!(raw.protected_membership(), vec![false, false, false, true]);
    }

    #[test]
    fn validate_catches_ragged_columns() {
        let mut raw = tiny_raw();
        raw.columns[0].1 = Column::Numeric(vec![1.0]);
        assert!(raw.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_codes() {
        let mut raw = tiny_raw();
        raw.columns[1].1 = Column::Categorical { codes: vec![Some(9), None, None, None], cardinality: 3 };
        assert!(raw.validate().unwrap_err().contains("code 9"));
    }

    fn tiny_dense() -> Dataset {
        Dataset {
            name: "d".into(),
            x: dfs_linalg::Matrix::from_rows(&[
                vec![0.0, 1.0, 0.5],
                vec![1.0, 0.0, 0.25],
                vec![0.5, 0.5, 0.75],
                vec![0.25, 0.75, 1.0],
            ]),
            y: vec![true, false, true, false],
            protected: vec![true, false, false, false],
            feature_names: vec!["a".into(), "b".into(), "c".into()],
        }
    }

    #[test]
    fn select_rows_subsets_everything() {
        let d = tiny_dense();
        let s = d.select_rows(&[3, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.y, vec![false, true]);
        assert_eq!(s.protected, vec![false, true]);
    }

    #[test]
    fn rates() {
        let d = tiny_dense();
        assert_eq!(d.positive_rate(), 0.5);
        assert_eq!(d.minority_rate(), 0.25);
    }

    #[test]
    fn dense_validate_catches_nan() {
        let mut d = tiny_dense();
        d.x[(0, 0)] = f64::NAN;
        assert!(d.validate().unwrap_err().contains("NaN"));
    }
}
