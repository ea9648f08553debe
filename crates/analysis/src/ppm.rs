//! Portable-pixmap (PPM) frames in the paper's Figure 1 color coding.
//!
//! Figure 1 paints happy `(+1)` green, happy `(-1)` blue, unhappy `(+1)`
//! white and unhappy `(-1)` yellow. [`figure1_frame`] renders a
//! [`Simulation`] state with exactly that legend.

use seg_core::Simulation;
use seg_grid::{AgentType, TypeField};
use std::io::{self, Write};
use std::path::Path;

/// An RGB color.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Rgb(
    /// red
    pub u8,
    /// green
    pub u8,
    /// blue
    pub u8,
);

/// Figure 1 legend: happy `(+1)`.
const HAPPY_PLUS: Rgb = Rgb(0, 153, 0); // green
/// Figure 1 legend: happy `(-1)`.
const HAPPY_MINUS: Rgb = Rgb(0, 51, 204); // blue
/// Figure 1 legend: unhappy `(+1)`.
const UNHAPPY_PLUS: Rgb = Rgb(255, 255, 255); // white
/// Figure 1 legend: unhappy `(-1)`.
const UNHAPPY_MINUS: Rgb = Rgb(255, 216, 0); // yellow

/// A raster image with PPM (P6) output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<Rgb>,
}

impl Image {
    /// A `width × height` image filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn new(width: u32, height: u32, fill: Rgb) -> Self {
        assert!(width > 0 && height > 0, "dimensions must be positive");
        Image {
            width,
            height,
            pixels: vec![fill; width as usize * height as usize],
        }
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub(crate) fn set(&mut self, x: u32, y: u32, c: Rgb) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[(y as usize) * (self.width as usize) + x as usize] = c;
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[cfg(test)]
    fn get(&self, x: u32, y: u32) -> Rgb {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[(y as usize) * (self.width as usize) + x as usize]
    }

    /// Serializes as binary PPM (P6).
    fn write_ppm<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "P6\n{} {}\n255", self.width, self.height)?;
        let mut buf = Vec::with_capacity(self.pixels.len() * 3);
        for p in &self.pixels {
            buf.extend_from_slice(&[p.0, p.1, p.2]);
        }
        out.write_all(&buf)
    }

    /// Writes a PPM file.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating, writing or flushing the file.
    pub fn save_ppm(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_ppm(&mut out)?;
        out.flush()
    }
}

/// Renders the simulation state in the Figure 1 legend.
pub fn figure1_frame(sim: &Simulation) -> Image {
    let t = sim.torus();
    let n = t.side();
    let mut img = Image::new(n, n, HAPPY_PLUS);
    for p in t.points() {
        let color = match (sim.field().get(p), sim.is_happy(p)) {
            (AgentType::Plus, true) => HAPPY_PLUS,
            (AgentType::Minus, true) => HAPPY_MINUS,
            (AgentType::Plus, false) => UNHAPPY_PLUS,
            (AgentType::Minus, false) => UNHAPPY_MINUS,
        };
        img.set(p.x, p.y, color);
    }
    img
}

/// Renders just the types (two colors) of a raw field.
pub fn type_frame(field: &TypeField) -> Image {
    let t = field.torus();
    let mut img = Image::new(t.side(), t.side(), HAPPY_PLUS);
    for (p, ty) in field.iter() {
        img.set(
            p.x,
            p.y,
            match ty {
                AgentType::Plus => HAPPY_PLUS,
                AgentType::Minus => HAPPY_MINUS,
            },
        );
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_core::ModelConfig;

    #[test]
    fn image_set_get_roundtrip() {
        let mut img = Image::new(4, 3, Rgb(0, 0, 0));
        img.set(3, 2, Rgb(1, 2, 3));
        assert_eq!(img.get(3, 2), Rgb(1, 2, 3));
        assert_eq!(img.get(0, 0), Rgb(0, 0, 0));
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(5, 7, Rgb(9, 9, 9));
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        let header = b"P6\n5 7\n255\n";
        assert_eq!(&buf[..header.len()], header);
        assert_eq!(buf.len(), header.len() + 5 * 7 * 3);
    }

    /// A frame smaller than the write buffer still reports a failed
    /// write: the buffer is flushed, not dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn save_ppm_reports_a_full_device() {
        let img = Image::new(16, 16, Rgb(0, 0, 0));
        assert!(img.save_ppm(Path::new("/dev/full")).is_err());
    }

    #[test]
    fn figure1_frame_uses_all_relevant_colors() {
        let sim = ModelConfig::new(48, 2, 0.45).seed(4).build();
        let img = figure1_frame(&sim);
        let mut greens = 0;
        let mut blues = 0;
        let mut others = 0;
        for y in 0..48 {
            for x in 0..48 {
                match img.get(x, y) {
                    c if c == HAPPY_PLUS => greens += 1,
                    c if c == HAPPY_MINUS => blues += 1,
                    _ => others += 1,
                }
            }
        }
        assert!(greens > 0 && blues > 0);
        // a fresh Bernoulli(1/2) field at τ = 0.45 has some unhappy agents
        assert!(others > 0);
        assert_eq!(greens + blues + others, 48 * 48);
    }

    #[test]
    fn type_frame_two_colors_only() {
        let sim = ModelConfig::new(32, 2, 0.4).seed(1).build();
        let img = type_frame(sim.field());
        for y in 0..32 {
            for x in 0..32 {
                let c = img.get(x, y);
                assert!(c == HAPPY_PLUS || c == HAPPY_MINUS);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_pixel_panics() {
        let img = Image::new(2, 2, Rgb(0, 0, 0));
        let _ = img.get(2, 0);
    }
}
