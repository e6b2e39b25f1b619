//! Output checks made apart from the program: a coordinate-level quality
//! check for refined meshes, the serial PTA solver, Kruskal plus the
//! benchmark's own union-find for MST, and the method's own properties
//! for SP surveys and served jobs. Each returns `Err` with a reason.

use morphgpu::dmr::Mesh;
use morphgpu::graph::Csr;
use morphgpu::pta::Solution;
use morphgpu::sp::surveys::Surveys;
use morphgpu::sp::FactorGraph;

/// Slack for comparing angles computed here against the 30° bound: the
/// program and this check may round differently at the boundary.
const ANGLE_SLACK_DEG: f64 = 1e-6;

/// No live, unfrozen triangle breaks the mesh's quality bound (angles
/// and edge lengths computed here from vertex coordinates), and the
/// program's own structural validation passes.
pub fn refined_mesh(mesh: &Mesh<f64>) -> Result<(), String> {
    let q = mesh.quality;
    for t in 0..mesh.num_slots() as u32 {
        if mesh.is_deleted(t) || mesh.is_frozen(t) {
            continue;
        }
        let p = mesh.tri_points(t);
        let side = |i: usize, j: usize| (p[i].x - p[j].x).hypot(p[i].y - p[j].y);
        let (a, b, c) = (side(1, 2), side(0, 2), side(0, 1));
        if a.min(b).min(c) <= q.min_edge {
            continue; // below the short-edge guard: never refined
        }
        // Law of cosines at each corner; the smallest angle is opposite
        // the shortest side.
        let corner = |opp: f64, s1: f64, s2: f64| {
            ((s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2))
                .clamp(-1.0, 1.0)
                .acos()
                .to_degrees()
        };
        let min_angle = corner(a, b, c).min(corner(b, a, c)).min(corner(c, a, b));
        if min_angle < q.min_angle_deg - ANGLE_SLACK_DEG {
            return Err(format!("triangle {t} has a {min_angle:.4}° angle"));
        }
    }
    mesh.validate(true)
}

/// Points-to sets equal the serial solver's (`reference`).
pub fn pta(got: &Solution, reference: &Solution) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{} variables, expected {}",
            got.len(),
            reference.len()
        ));
    }
    for (v, (a, b)) in got.iter().zip(reference).enumerate() {
        let mut a = a.clone();
        a.sort_unstable();
        if a != *b {
            return Err(format!(
                "points-to set of variable {v} differs from the serial solver"
            ));
        }
    }
    Ok(())
}

/// Sort every points-to set, so [`pta`] compares sets, not orders.
pub fn sorted_solution(mut s: Solution) -> Solution {
    for set in &mut s {
        set.sort_unstable();
    }
    s
}

/// Connected components of `g`, by a union-find kept here.
pub fn components(g: &Csr) -> usize {
    let n = g.num_nodes();
    let mut parent: Vec<usize> = (0..n).collect();
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut comps = n;
    for (u, v, _) in g.all_edges() {
        let (ru, rv) = (root(&mut parent, u as usize), root(&mut parent, v as usize));
        if ru != rv {
            parent[ru] = rv;
            comps -= 1;
        }
    }
    comps
}

/// Forest weight equals Kruskal's and edges = nodes − components.
pub fn mst(
    weight: u64,
    edges: usize,
    kruskal_weight: u64,
    nodes: usize,
    comps: usize,
) -> Result<(), String> {
    if weight != kruskal_weight {
        return Err(format!("forest weight {weight}, Kruskal {kruskal_weight}"));
    }
    if edges != nodes - comps {
        return Err(format!("{edges} forest edges, expected {}", nodes - comps));
    }
    Ok(())
}

/// Every live survey is a finite probability; when propagation reported
/// convergence (`sweeps < cap`), one serial sweep from those surveys
/// stays below `eps`, confirming the fixed point.
pub fn sp(
    fg: &FactorGraph,
    s: &Surveys,
    sweeps: usize,
    cap: usize,
    eps: f64,
) -> Result<(), String> {
    for e in 0..fg.num_edge_slots() {
        if !fg.edge_live(e) {
            continue;
        }
        let eta = s.get(e);
        if !(eta.is_finite() && (0.0..=1.0).contains(&eta)) {
            return Err(format!("survey {e} is {eta}"));
        }
    }
    if sweeps < cap && morphgpu::sp::serial::propagate(fg, s, eps, 1) != 1 {
        return Err("one serial sweep from the converged surveys moved them by eps or more".into());
    }
    Ok(())
}
