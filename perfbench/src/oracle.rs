//! The plaintext oracle: the naive XPath evaluator run on the generated
//! document, with the run's acknowledged writes applied to it. Answers
//! are rendered as `tests/end_to_end.rs` renders them and compared as
//! sorted lists.

use exq_xml::{Document, NodeId, NodeKind};
use exq_xpath::{eval_document, Path};
use std::collections::HashMap;

pub struct Oracle {
    doc: Document,
    root: NodeId,
    /// Patients this run inserted, by SSN.
    inserted: HashMap<String, NodeId>,
    /// Sorted reference answers for the current document state.
    answers: HashMap<String, Vec<String>>,
}

impl Oracle {
    pub fn new(doc: Document) -> Oracle {
        let root = doc.root().expect("generated document has a root");
        Oracle {
            doc,
            root,
            inserted: HashMap::new(),
            answers: HashMap::new(),
        }
    }

    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The sorted reference answer to `query`.
    pub fn answer(&mut self, query: &str) -> Result<&[String], String> {
        if !self.answers.contains_key(query) {
            let path = Path::parse(query).map_err(|e| format!("oracle: {query}: {e}"))?;
            let mut rendered: Vec<String> = eval_document(&self.doc, &path)
                .into_iter()
                .map(|n| render(&self.doc, n))
                .collect();
            rendered.sort();
            self.answers.insert(query.to_owned(), rendered);
        }
        Ok(&self.answers[query])
    }

    /// Applies an acknowledged insert of `record` under the root.
    pub fn insert(&mut self, ssn: &str, record: &str) -> Result<(), String> {
        let rec = Document::parse(record).map_err(|e| format!("oracle: record: {e}"))?;
        let rec_root = rec.root().ok_or("oracle: empty record")?;
        let node = rec.clone_subtree_into(rec_root, &mut self.doc, Some(self.root));
        self.inserted.insert(ssn.to_owned(), node);
        self.answers.clear();
        Ok(())
    }

    /// Applies an acknowledged delete of the patient this run inserted
    /// with `ssn`. Returns how many subtrees the delete should remove.
    pub fn delete(&mut self, ssn: &str) -> usize {
        match self.inserted.remove(ssn) {
            Some(node) => {
                self.doc.detach(node);
                self.answers.clear();
                1
            }
            None => 0,
        }
    }
}

/// Renders a result node the way the client renders one.
pub fn render(doc: &Document, n: NodeId) -> String {
    match doc.node(n).kind() {
        NodeKind::Element(_) => doc.node_to_xml(n),
        NodeKind::Attribute(_, v) => v.clone(),
        NodeKind::Text(t) => t.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_writes() {
        let doc = Document::parse(
            "<hospital><patient><pname>A</pname><SSN>100000</SSN></patient></hospital>",
        )
        .unwrap();
        let mut o = Oracle::new(doc);
        assert_eq!(o.answer("//patient/pname").unwrap(), ["<pname>A</pname>"]);
        o.insert(
            "2000000",
            "<patient><pname>B</pname><SSN>2000000</SSN></patient>",
        )
        .unwrap();
        assert_eq!(
            o.answer("//patient/pname").unwrap(),
            ["<pname>A</pname>", "<pname>B</pname>"]
        );
        assert_eq!(o.delete("2000000"), 1);
        assert_eq!(o.delete("2000000"), 0);
        assert_eq!(o.answer("//patient/pname").unwrap(), ["<pname>A</pname>"]);
    }
}
