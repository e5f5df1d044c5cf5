//! A website: a set of objects addressable by path.

use h2priv_bytes::FxHashMap;

use crate::object::{ObjectId, ObjectKind, WebObject};

/// A static website: the object table, addressable by path and id.
///
/// A site stores no bodies. Each body is a pure function of its object's
/// id and size, and servers take it from
/// [`WebObject::shared_body`]'s per-thread memo, so every server on a
/// thread shares one buffer per distinct body.
#[derive(Debug, Clone, Default)]
pub struct Website {
    objects: Vec<WebObject>,
    by_path: FxHashMap<String, ObjectId>,
}

impl Website {
    /// Creates an empty site.
    pub fn new() -> Self {
        Website::default()
    }

    /// Adds an object and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the path is already registered (a site is a function from
    /// path to object).
    pub fn add(&mut self, path: impl Into<String>, kind: ObjectKind, size: usize) -> ObjectId {
        let path = path.into();
        assert!(!self.by_path.contains_key(&path), "duplicate path {path:?}");
        let id = ObjectId(self.objects.len() as u32);
        self.by_path.insert(path.clone(), id);
        self.objects.push(WebObject::new(id, path, kind, size));
        id
    }

    /// Looks an object up by path.
    pub fn lookup(&self, path: &str) -> Option<&WebObject> {
        self.by_path
            .get(path)
            .map(|&id| &self.objects[id.0 as usize])
    }

    /// Looks an object up by id.
    pub fn object(&self, id: ObjectId) -> Option<&WebObject> {
        self.objects.get(id.0 as usize)
    }

    /// All objects, in id order.
    pub fn objects(&self) -> &[WebObject] {
        &self.objects
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the site has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total body bytes across all objects.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.size as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut site = Website::new();
        let id = site.add("/index.html", ObjectKind::Html, 1234);
        assert_eq!(site.lookup("/index.html").unwrap().id, id);
        assert_eq!(site.object(id).unwrap().size, 1234);
        assert_eq!(site.lookup("/missing"), None);
        assert_eq!(site.len(), 1);
        assert!(!site.is_empty());
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut site = Website::new();
        let a = site.add("/a", ObjectKind::Other, 1);
        let b = site.add("/b", ObjectKind::Other, 2);
        assert_eq!(a, ObjectId(0));
        assert_eq!(b, ObjectId(1));
        assert_eq!(site.total_bytes(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate path")]
    fn duplicate_path_panics() {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Other, 1);
        site.add("/a", ObjectKind::Other, 2);
    }
}
