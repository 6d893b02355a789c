//! The template library (§6): users save selected templates and attach alert rules to
//! them (e.g. "alert when this template's count jumps" or "alert when a new template
//! appears"). The library also powers matching incoming logs against known failure
//! scenarios.

use serde::{Deserialize, Serialize};

/// An alert rule attached to a saved template.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlertRule {
    /// Alert whenever the template's count in a window exceeds this value.
    CountAbove(u64),
    /// Alert whenever the template's count in a window falls below this value.
    CountBelow(u64),
    /// Alert the first time the template appears at all.
    OnAppearance,
}

/// A saved library entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LibraryEntry {
    /// User-facing name ("OOM killer", "disk failure", …).
    pub name: String,
    /// The template text (presentation form, wildcards as `*`).
    pub template: String,
    /// Attached alert rules.
    pub rules: Vec<AlertRule>,
}

/// A fired alert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Name of the library entry that fired.
    pub entry: String,
    /// The rule that fired.
    pub rule: AlertRule,
    /// Observed count in the evaluated window.
    pub observed: u64,
}

/// The per-topic template library.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TemplateLibrary {
    entries: Vec<LibraryEntry>,
}

impl TemplateLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Save a template under a name (replaces an existing entry with the same name).
    pub fn save(&mut self, name: &str, template: &str, rules: Vec<AlertRule>) {
        self.entries.retain(|e| e.name != name);
        self.entries.push(LibraryEntry {
            name: name.to_string(),
            template: template.to_string(),
            rules,
        });
    }

    /// Remove an entry by name; returns true when something was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.name != name);
        self.entries.len() != before
    }

    /// Number of saved entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Option<&LibraryEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// All entries.
    pub fn entries(&self) -> &[LibraryEntry] {
        &self.entries
    }

    /// Match a template text against the library: returns the names of entries whose
    /// template is position-wise compatible (a library wildcard matches anything; equal
    /// constants match each other). Used to map parsed templates to known failure
    /// scenarios.
    pub fn match_template(&self, template: &str) -> Vec<&str> {
        let tokens: Vec<&str> = template.split_whitespace().collect();
        self.entries
            .iter()
            .filter(|entry| {
                let entry_tokens: Vec<&str> = entry.template.split_whitespace().collect();
                entry_tokens.len() == tokens.len()
                    && entry_tokens
                        .iter()
                        .zip(&tokens)
                        .all(|(e, t)| *e == "*" || *t == "*" || e == t)
            })
            .map(|entry| entry.name.as_str())
            .collect()
    }

    /// Evaluate every alert rule against a template-count distribution for a window
    /// (`(template, count)` pairs of a distribution query).
    pub fn evaluate_alerts(&self, distribution: &[(String, u64)]) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for entry in &self.entries {
            // Aggregate the counts of all distribution templates compatible with this entry.
            let observed: u64 = distribution
                .iter()
                .filter(|(template, _)| {
                    self.match_template(template)
                        .iter()
                        .any(|name| *name == entry.name)
                })
                .map(|(_, count)| *count)
                .sum();
            for rule in &entry.rules {
                let fired = match rule {
                    AlertRule::CountAbove(limit) => observed > *limit,
                    AlertRule::CountBelow(limit) => observed < *limit,
                    AlertRule::OnAppearance => observed > 0,
                };
                if fired {
                    alerts.push(Alert {
                        entry: entry.name.clone(),
                        rule: *rule,
                        observed,
                    });
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distribution(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn save_get_and_remove() {
        let mut lib = TemplateLibrary::new();
        lib.save(
            "oom",
            "Out of memory: Killed process *",
            vec![AlertRule::OnAppearance],
        );
        assert_eq!(lib.len(), 1);
        assert!(lib.get("oom").is_some());
        assert!(lib.remove("oom"));
        assert!(lib.is_empty());
        assert!(!lib.remove("oom"));
    }

    #[test]
    fn saving_same_name_replaces_entry() {
        let mut lib = TemplateLibrary::new();
        lib.save("x", "a *", vec![]);
        lib.save("x", "b *", vec![]);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.get("x").unwrap().template, "b *");
    }

    #[test]
    fn template_matching_respects_wildcards() {
        let mut lib = TemplateLibrary::new();
        lib.save("disk", "disk failure on *", vec![]);
        lib.save("net", "connection refused from *", vec![]);
        assert_eq!(lib.match_template("disk failure on sda1"), vec!["disk"]);
        assert_eq!(lib.match_template("disk failure on *"), vec!["disk"]);
        assert!(lib.match_template("disk failure").is_empty());
    }

    #[test]
    fn appearance_alert_fires_when_template_seen() {
        let mut lib = TemplateLibrary::new();
        lib.save(
            "oom",
            "Out of memory: Killed process *",
            vec![AlertRule::OnAppearance],
        );
        let alerts = lib.evaluate_alerts(&distribution(&[
            ("Out of memory: Killed process *", 3),
            ("user login *", 500),
        ]));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].entry, "oom");
        assert_eq!(alerts[0].observed, 3);
    }

    #[test]
    fn count_threshold_alerts() {
        let mut lib = TemplateLibrary::new();
        lib.save(
            "errors",
            "request failed with status *",
            vec![AlertRule::CountAbove(100)],
        );
        lib.save(
            "heartbeat",
            "heartbeat from *",
            vec![AlertRule::CountBelow(5)],
        );
        let alerts = lib.evaluate_alerts(&distribution(&[
            ("request failed with status *", 250),
            ("heartbeat from *", 2),
        ]));
        assert_eq!(alerts.len(), 2);
    }

    #[test]
    fn no_alerts_when_rules_not_met() {
        let mut lib = TemplateLibrary::new();
        lib.save(
            "errors",
            "request failed with status *",
            vec![AlertRule::CountAbove(100)],
        );
        let alerts = lib.evaluate_alerts(&distribution(&[("request failed with status *", 10)]));
        assert!(alerts.is_empty());
    }
}
