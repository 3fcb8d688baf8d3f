//! Node mailbox: per-node circular buffers of raw messages.
//!
//! Memory-based TGNN models avoid information leakage by storing raw
//! messages in a mailbox and consuming them in a *later* batch (paper
//! §2 "Model Training"). TGN/JODIE use one slot per node; APAN keeps a
//! mailbox of size 10 and attends over the stored mails.

use tgl_runtime::sync::RwLock;
use tgl_device::Device;
use tgl_tensor::Tensor;

use crate::{NodeId, Time};

/// "Storage for node mailbox message vectors and delivery timestamps"
/// (paper Table 2). Each node owns `slots` message rows used as a
/// circular buffer.
#[derive(Debug)]
pub struct Mailbox {
    data: Tensor, // [num_nodes * slots, dim]
    time: RwLock<Vec<Time>>,
    cursor: RwLock<Vec<u32>>,
    slots: usize,
    dim: usize,
}

impl Mailbox {
    /// Creates an empty mailbox with `slots` messages of width `dim`
    /// per node.
    pub fn new(num_nodes: usize, slots: usize, dim: usize, device: Device) -> Mailbox {
        assert!(slots >= 1, "mailbox needs at least one slot");
        Mailbox {
            data: Tensor::zeros_on([num_nodes * slots, dim], device),
            time: RwLock::new(vec![0.0; num_nodes * slots]),
            cursor: RwLock::new(vec![0; num_nodes]),
            slots,
            dim,
        }
    }

    /// Message width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Slots per node.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.data.dim(0) / self.slots
    }

    /// Stores one mail row per node (detached write), advancing each
    /// node's circular cursor.
    ///
    /// # Panics
    ///
    /// Panics if `mails` is not `[nodes.len(), dim]`.
    pub fn store(&self, nodes: &[NodeId], mails: &Tensor, times: &[Time]) {
        tgl_obs::counter!("mailbox.mails_stored").add(nodes.len() as u64);
        assert_eq!(mails.dims(), &[nodes.len(), self.dim], "mailbox store shape");
        assert_eq!(nodes.len(), times.len(), "mailbox store times length");
        let src = mails.to_vec();
        let mut cursor = self.cursor.write();
        let mut t = self.time.write();
        self.data.with_data_mut(|data| {
            for (k, &n) in nodes.iter().enumerate() {
                let n = n as usize;
                let slot = cursor[n] as usize % self.slots;
                let row = n * self.slots + slot;
                data[row * self.dim..(row + 1) * self.dim]
                    .copy_from_slice(&src[k * self.dim..(k + 1) * self.dim]);
                t[row] = times[k];
                cursor[n] = cursor[n].wrapping_add(1);
            }
        });
    }

    /// Gathers the most recently stored mail row per node, with its
    /// delivery time (zeros for never-mailed nodes).
    pub fn latest(&self, nodes: &[NodeId]) -> (Tensor, Vec<Time>) {
        let cursor = self.cursor.read();
        let t = self.time.read();
        let mut rows = Vec::with_capacity(nodes.len());
        let mut times = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let n = n as usize;
            let last = (cursor[n] as usize + self.slots - 1) % self.slots;
            let row = n * self.slots + last;
            rows.push(row);
            times.push(t[row]);
        }
        drop(t);
        drop(cursor);
        tgl_obs::counter!("mailbox.rows_read").add(nodes.len() as u64);
        // A zero delivery time means the slot never received a mail.
        let stale = times.iter().filter(|&&ts| ts == 0.0).count();
        tgl_obs::counter!("mailbox.stale_reads").add(stale as u64);
        (self.data.index_select(&rows), times)
    }

    /// Gathers *all* slots for each node as `[nodes.len()*slots, dim]`,
    /// plus per-row delivery times and per-row owner index (0..n) for
    /// segmented aggregation (APAN attends over these).
    pub fn all_slots(&self, nodes: &[NodeId]) -> (Tensor, Vec<Time>, Vec<usize>) {
        let t = self.time.read();
        let mut rows = Vec::with_capacity(nodes.len() * self.slots);
        let mut times = Vec::with_capacity(nodes.len() * self.slots);
        let mut owners = Vec::with_capacity(nodes.len() * self.slots);
        for (k, &n) in nodes.iter().enumerate() {
            let n = n as usize;
            for s in 0..self.slots {
                let row = n * self.slots + s;
                rows.push(row);
                times.push(t[row]);
                owners.push(k);
            }
        }
        drop(t);
        tgl_obs::counter!("mailbox.rows_read").add(rows.len() as u64);
        (self.data.index_select(&rows), times, owners)
    }

    /// Zeroes all mails, times, and cursors.
    pub fn reset(&self) {
        self.data.with_data_mut(|d| d.fill(0.0));
        self.time.write().fill(0.0);
        self.cursor.write().fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_then_latest_roundtrip() {
        let mb = Mailbox::new(3, 1, 2, Device::Host);
        mb.store(
            &[1],
            &Tensor::from_vec(vec![5.0, 6.0], [1, 2]),
            &[42.0],
        );
        let (mail, times) = mb.latest(&[1, 0]);
        assert_eq!(mail.to_vec(), vec![5.0, 6.0, 0.0, 0.0]);
        assert_eq!(times, vec![42.0, 0.0]);
    }

    #[test]
    fn circular_buffer_overwrites_oldest() {
        let mb = Mailbox::new(1, 2, 1, Device::Host);
        for i in 0..3 {
            mb.store(
                &[0],
                &Tensor::from_vec(vec![i as f32], [1, 1]),
                &[i as Time],
            );
        }
        // Slots hold mails 1 and 2 now; latest is 2.
        let (mail, times) = mb.latest(&[0]);
        assert_eq!(mail.to_vec(), vec![2.0]);
        assert_eq!(times, vec![2.0]);
        let (all, all_t, owners) = mb.all_slots(&[0]);
        let mut vals = all.to_vec();
        vals.sort_by(f32::total_cmp);
        assert_eq!(vals, vec![1.0, 2.0]);
        assert_eq!(all_t.len(), 2);
        assert_eq!(owners, vec![0, 0]);
    }

    #[test]
    fn all_slots_owner_segments() {
        let mb = Mailbox::new(4, 3, 1, Device::Host);
        let (_, _, owners) = mb.all_slots(&[2, 0]);
        assert_eq!(owners, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn reset_clears_everything() {
        let mb = Mailbox::new(1, 1, 1, Device::Host);
        mb.store(&[0], &Tensor::ones([1, 1]), &[7.0]);
        mb.reset();
        let (mail, times) = mb.latest(&[0]);
        assert_eq!(mail.to_vec(), vec![0.0]);
        assert_eq!(times, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "mailbox store shape")]
    fn store_wrong_width_panics() {
        Mailbox::new(1, 1, 2, Device::Host).store(&[0], &Tensor::ones([1, 3]), &[0.0]);
    }
}
