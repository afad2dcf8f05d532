use hetesim_core::{CoreError, PathMeasure, Result};
use hetesim_graph::{GraphError, Hin, MetaPath};
use hetesim_sparse::{chain, CooMatrix, CsrMatrix};

/// PathSim (Sun et al., VLDB 2011).
///
/// For a *symmetric* meta-path `P` between same-typed objects,
/// `PathSim(a, b) = 2·M(a,b) / (M(a,a) + M(b,b))` where `M` counts path
/// instances (the product of the raw, unnormalized adjacency matrices along
/// `P`). PathSim rewards peers with balanced *visibility*: authors with
/// similar overall publication volume rank high even if their venue
/// distributions differ — the contrast HeteSim exploits in Table 4.
///
/// PathSim is undefined for asymmetric paths and different-typed endpoints;
/// [`PathMeasure::relevance_matrix`] returns an error for those, which is
/// itself one of the paper's motivating observations.
#[derive(Debug)]
pub struct PathSim<'a> {
    hin: &'a Hin,
}

impl<'a> PathSim<'a> {
    /// A PathSim measure over the given network.
    pub fn new(hin: &'a Hin) -> Self {
        PathSim { hin }
    }

    /// Path-instance count matrix `M` for an arbitrary path: the product of
    /// raw adjacency matrices along the steps.
    pub fn count_matrix(&self, path: &MetaPath) -> Result<CsrMatrix> {
        let mats: Vec<&CsrMatrix> = path
            .steps()
            .iter()
            .map(|&s| self.hin.step_adjacency(s))
            .collect();
        Ok(chain::multiply_chain(&mats, None, 1).map_err(GraphError::from)?)
    }

    fn require_symmetric(&self, path: &MetaPath) -> Result<()> {
        if !path.is_symmetric() {
            return Err(CoreError::Graph(GraphError::InvalidPath(format!(
                "PathSim requires a symmetric path, got {}",
                path.display(self.hin.schema())
            ))));
        }
        Ok(())
    }
}

impl PathMeasure for PathSim<'_> {
    fn name(&self) -> &'static str {
        "PathSim"
    }

    fn relevance_matrix(&self, path: &MetaPath) -> Result<CsrMatrix> {
        self.require_symmetric(path)?;
        let m = self.count_matrix(path)?;
        let diag: Vec<f64> = (0..m.nrows()).map(|i| m.get(i, i)).collect();
        let mut coo = CooMatrix::with_capacity(m.nrows(), m.ncols(), m.nnz());
        for (a, b, v) in m.iter() {
            let denom = diag[a] + diag[b];
            if denom > 0.0 {
                coo.push(a, b, 2.0 * v / denom);
            }
        }
        Ok(coo.to_csr())
    }

    fn score(&self, path: &MetaPath, a: u32, b: u32) -> Result<f64> {
        self.require_symmetric(path)?;
        let m = self.count_matrix(path)?;
        let denom = m.get(a as usize, a as usize) + m.get(b as usize, b as usize);
        if denom == 0.0 {
            Ok(0.0)
        } else {
            Ok(2.0 * m.get(a as usize, b as usize) / denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, Schema};

    fn toy() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        // Tom: 2 papers in KDD. Mary: 1 paper in KDD, 1 in SIGMOD.
        // Bob: 4 papers in KDD (high volume).
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P4", 1.0).unwrap();
        for i in 5..=8 {
            b.add_edge_by_name(w, "Bob", &format!("P{i}"), 1.0).unwrap();
        }
        for p_kdd in ["P1", "P2", "P3", "P5", "P6", "P7", "P8"] {
            b.add_edge_by_name(pb, p_kdd, "KDD", 1.0).unwrap();
        }
        b.add_edge_by_name(pb, "P4", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn self_similarity_is_one() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        for a in 0..3u32 {
            let v = ps.score(&apcpa, a, a).unwrap();
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_in_arguments() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        for a in 0..3u32 {
            for b in 0..3u32 {
                let ab = ps.score(&apcpa, a, b).unwrap();
                let ba = ps.score(&apcpa, b, a).unwrap();
                assert!((ab - ba).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn volume_balance_matters() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        let a = hin.schema().type_id("author").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap();
        let mary = hin.node_id(a, "Mary").unwrap();
        let bob = hin.node_id(a, "Bob").unwrap();
        // Tom and Mary have similar volume; Bob dwarfs Tom, which PathSim
        // penalizes through the diagonal normalization.
        let tom_mary = ps.score(&apcpa, tom, mary).unwrap();
        let tom_bob = ps.score(&apcpa, tom, bob).unwrap();
        assert!(tom_mary > 0.0 && tom_bob > 0.0);
        // M(tom,bob)=2*4=8, M(tom,tom)=4, M(bob,bob)=16 -> 16/20 = 0.8
        assert!((tom_bob - 0.8).abs() < 1e-12);
        // M(tom,mary)=2, M(mary,mary)=2 -> 4/6 ≈ 0.667
        assert!((tom_mary - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_path_is_rejected() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        assert!(ps.relevance_matrix(&apc).is_err());
        assert!(ps.score(&apc, 0, 0).is_err());
    }

    #[test]
    fn matrix_matches_scores() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        let m = ps.relevance_matrix(&apcpa).unwrap();
        for a in 0..3u32 {
            for b in 0..3u32 {
                let s = ps.score(&apcpa, a, b).unwrap();
                assert!((m.get(a as usize, b as usize) - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn count_matrix_counts_path_instances() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let m = ps.count_matrix(&apc).unwrap();
        let a = hin.schema().type_id("author").unwrap();
        let c = hin.schema().type_id("conference").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap() as usize;
        let kdd = hin.node_id(c, "KDD").unwrap() as usize;
        assert_eq!(m.get(tom, kdd), 2.0); // Tom has 2 KDD papers
    }
}
